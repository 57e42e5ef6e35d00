package btree

import (
	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/mem"
)

// Shared-memory operations: the requesting thread stays on its own
// processor and walks the tree through its hardware cache. Node metadata
// is read via the header line, binary-search probes touch individual key
// lines, and the chosen child pointer touches one child line — so a
// descent moves a handful of 16-byte lines instead of whole nodes, and
// repeated traversals hit only if those lines survive in the 64K cache
// (the paper measured <7% hits on the 10k-key tree).

// chargeProbeReads prices the cache-line traffic of a binary search.
func (tr *Tree) chargeProbeReads(t *core.Task, nd *node, touched []int) {
	th, proc := t.Thread(), t.Proc()
	for _, ln := range keyLines(touched) {
		tr.shm.Read(th, proc, nd.addrKeys+mem.Addr(ln*mem.LineBytes), 8)
	}
}

// keyLineAddr returns the address of the key line holding index i.
func keyLineAddr(nd *node, i int) mem.Addr {
	return nd.addrKeys + mem.Addr(i*8/mem.LineBytes*mem.LineBytes)
}

// prefetchProbes starts fetching the lines binary search will touch
// first. The opening probe positions are data-independent (mid, then one
// of the quarter points, ...), so the first few levels of the probe tree
// can be fetched before the comparisons run — §2.5's prefetching,
// without flooding the home module with the whole array.
func (tr *Tree) prefetchProbes(proc int, nd *node) {
	n := len(nd.keys)
	if n == 0 {
		return
	}
	for _, pos := range []int{n / 2, n / 4, 3 * n / 4} {
		if pos < n {
			tr.shm.Prefetch(proc, keyLineAddr(nd, pos), 8)
		}
	}
}

func (tr *Tree) lookupSM(t *core.Task, key uint64) bool {
	th, proc := t.Thread(), t.Proc()
	cur := tr.root
	for hops := 0; ; hops++ {
		nd := tr.rt.Objects.State(cur).(*node)
		if tr.SMPrefetch {
			tr.prefetchProbes(proc, nd)
		}
		tr.shm.Read(th, proc, nd.addrHeader, 16)
		t.Work(searchCycles(len(nd.keys)))
		if nd.leaf {
			found, lat, touched := nd.leafContains(key)
			tr.chargeProbeReads(t, nd, touched)
			if !lat.IsNil() {
				cur = lat
				continue
			}
			return found
		}
		next, lateral, touched := nd.route(key)
		tr.chargeProbeReads(t, nd, touched)
		if !lateral {
			i, _ := probe(nd.keys, key)
			tr.shm.Read(th, proc, nd.addrKids+mem.Addr(i*8), 8)
		}
		cur = next
		if hops > 1000 {
			panic("btree: SM descent did not terminate")
		}
	}
}

// lockSM acquires a node's writer lock through shared memory: an atomic
// RMW on the header line models test-and-set; the sim mutex models the
// blocking behaviour under contention.
func (tr *Tree) lockSM(t *core.Task, nd *node) {
	tr.shm.RMW(t.Thread(), t.Proc(), nd.addrHeader)
	t.Work(tr.LockCycles)
	nd.lock.Lock(t.Thread())
}

func (tr *Tree) unlockSM(t *core.Task, nd *node) {
	nd.lock.Unlock(t.Thread())
	tr.shm.Write(t.Thread(), t.Proc(), nd.addrHeader, 8)
}

// splitSM splits a locked node and charges the write traffic of
// populating the sibling's lines and updating both headers.
func (tr *Tree) splitSM(t *core.Task, nd *node) (gid.GID, splitInfo) {
	g, info := tr.splitLocked(t, nd)
	r := tr.rt.Objects.State(g).(*node)
	th, proc := t.Thread(), t.Proc()
	tr.shm.Write(th, proc, r.addrHeader, 16)
	tr.shm.Write(th, proc, r.addrKeys, uint64(8*len(r.keys)))
	if !r.leaf {
		tr.shm.Write(th, proc, r.addrKids, uint64(8*len(r.children)))
	}
	tr.shm.Write(th, proc, nd.addrHeader, 16)
	return g, info
}

func (tr *Tree) insertSM(t *core.Task, key uint64) bool {
	th, proc := t.Thread(), t.Proc()
	cur := tr.root
	var path []gid.GID
	phase := phaseDescend
	var oldBound, sep uint64
	var newChild gid.GID
	inserted := false

	// ascend routes a finished split toward the parent level, growing the
	// tree at the root. It returns (done, nextCur).
	ascend := func(info splitInfo) (bool, gid.GID) {
		oldBound, sep, newChild = info.OldBound, info.Sep, info.NewNode
		phase = phaseUp
		if len(path) > 0 {
			next := path[len(path)-1]
			path = path[:len(path)-1]
			return false, next
		}
		next := tr.growRoot(t, cur, info.Sep)
		return next.IsNil(), next
	}

	for hops := 0; ; hops++ {
		if hops > 4000 {
			panic("btree: SM insert did not terminate")
		}
		nd := tr.rt.Objects.State(cur).(*node)
		tr.shm.Read(th, proc, nd.addrHeader, 16)

		if phase == phaseUp {
			if sep > nd.high {
				cur = nd.right
				continue
			}
			tr.lockSM(t, nd)
			if sep > nd.high {
				tr.unlockSM(t, nd)
				cur = nd.right
				continue
			}
			t.Work(searchCycles(len(nd.keys)) + tr.InsertCycles)
			i, touched := probe(nd.keys, oldBound)
			tr.chargeProbeReads(t, nd, touched)
			tr.shm.Write(th, proc, keyLineAddr(nd, i), 16)
			tr.shm.Write(th, proc, nd.addrKids+mem.Addr(i*8), 16)
			if !nd.insertChild(sep, newChild) {
				tr.unlockSM(t, nd)
				cur = nd.right
				continue
			}
			if len(nd.keys) <= tr.p.Fanout {
				tr.logNode(t, nd)
				tr.unlockSM(t, nd)
				return inserted
			}
			_, info := tr.splitSM(t, nd)
			tr.unlockSM(t, nd)
			done, next := ascend(info)
			if done {
				return inserted
			}
			cur = next
			continue
		}

		if !nd.leaf {
			t.Work(searchCycles(len(nd.keys)))
			next, lateral, touched := nd.route(key)
			tr.chargeProbeReads(t, nd, touched)
			if !lateral {
				i, _ := probe(nd.keys, key)
				tr.shm.Read(th, proc, nd.addrKids+mem.Addr(i*8), 8)
				path = append(path, cur)
			}
			cur = next
			continue
		}

		// Leaf insert.
		if key > nd.high {
			cur = nd.right
			continue
		}
		tr.lockSM(t, nd)
		if key > nd.high {
			tr.unlockSM(t, nd)
			cur = nd.right
			continue
		}
		t.Work(searchCycles(len(nd.keys)) + tr.InsertCycles)
		i, touched := probe(nd.keys, key)
		tr.chargeProbeReads(t, nd, touched)
		tr.shm.Write(th, proc, keyLineAddr(nd, i), 16)
		inserted = nd.leafInsert(key)
		if len(nd.keys) <= tr.p.Fanout {
			if inserted {
				tr.logNode(t, nd)
			}
			tr.unlockSM(t, nd)
			return inserted
		}
		_, info := tr.splitSM(t, nd)
		tr.unlockSM(t, nd)
		done, next := ascend(info)
		if done {
			return inserted
		}
		cur = next
	}
}
