package btree

import (
	"compmig/internal/core"
	"compmig/internal/gid"
)

// Object-migration operations (the Emerald-style mechanism the paper
// wanted to compare, here as an extension): every node the operation
// touches is pulled to the requesting processor first, then accessed
// locally. Upper-level nodes are touched by everyone, so concurrent
// requesters steal them from each other — whole-object migration
// behaves like data migration without replication, which is exactly
// what §2.2 predicts makes it a poor fit for shared structures.

// nodeStateWords sizes a node's wire image: keys, children, header.
func nodeStateWords(nd *node) uint64 {
	words := uint64(2*len(nd.keys)) + 8
	if !nd.leaf {
		words += uint64(2 * len(nd.children))
	}
	return words
}

// pullNode brings a node to the requester and returns its state. The
// caller must do its host-level access immediately after (no yield), so
// the access is atomic even if the node is stolen right away.
func (tr *Tree) pullNode(t *core.Task, g gid.GID) *node {
	for !t.IsLocal(g) {
		nd := tr.rt.Objects.State(g).(*node)
		if err := t.PullObject(g, nodeStateWords(nd)); err != nil {
			panic("btree: node pull failed: " + err.Error())
		}
	}
	return tr.rt.Objects.State(g).(*node)
}

func (tr *Tree) lookupOM(t *core.Task, key uint64) bool {
	cur := tr.root
	for hops := 0; ; hops++ {
		if hops > 1000 {
			panic("btree: OM descent did not terminate")
		}
		nd := tr.pullNode(t, cur)
		if nd.leaf {
			found, lat, _ := nd.leafContains(key)
			t.Work(searchCycles(len(nd.keys)))
			if !lat.IsNil() {
				cur = lat
				continue
			}
			return found
		}
		next, _, _ := nd.route(key)
		t.Work(searchCycles(len(nd.keys)))
		cur = next
	}
}

func (tr *Tree) insertOM(t *core.Task, key uint64) bool {
	cur := tr.root
	var path []gid.GID
	phase := phaseDescend
	var sep uint64
	var newChild gid.GID
	inserted := false

	for hops := 0; ; hops++ {
		if hops > 4000 {
			panic("btree: OM insert did not terminate")
		}
		nd := tr.pullNode(t, cur)

		if phase == phaseUp {
			if sep > nd.high {
				cur = nd.right
				continue
			}
			t.Work(tr.LockCycles)
			nd.lock.Lock(t.Thread())
			if sep > nd.high {
				nd.lock.Unlock(t.Thread())
				cur = nd.right
				continue
			}
			t.Work(searchCycles(len(nd.keys)) + tr.InsertCycles)
			if !nd.insertChild(sep, newChild) {
				nd.lock.Unlock(t.Thread())
				cur = nd.right
				continue
			}
			if len(nd.keys) <= tr.p.Fanout {
				tr.logNode(t, nd)
				nd.lock.Unlock(t.Thread())
				return inserted
			}
			_, info := tr.splitLocked(t, nd)
			nd.lock.Unlock(t.Thread())
			sep, newChild = info.Sep, info.NewNode
			if len(path) > 0 {
				cur = path[len(path)-1]
				path = path[:len(path)-1]
				continue
			}
			if cur = tr.growRoot(t, cur, sep); cur.IsNil() {
				return inserted
			}
			continue
		}

		if !nd.leaf {
			next, lateral, _ := nd.route(key)
			t.Work(searchCycles(len(nd.keys)))
			if !lateral {
				path = append(path, cur)
			}
			cur = next
			continue
		}

		if key > nd.high {
			cur = nd.right
			continue
		}
		t.Work(tr.LockCycles)
		nd.lock.Lock(t.Thread())
		if key > nd.high {
			nd.lock.Unlock(t.Thread())
			cur = nd.right
			continue
		}
		t.Work(searchCycles(len(nd.keys)) + tr.InsertCycles)
		inserted = nd.leafInsert(key)
		if len(nd.keys) <= tr.p.Fanout {
			if inserted {
				tr.logNode(t, nd)
			}
			nd.lock.Unlock(t.Thread())
			return inserted
		}
		_, info := tr.splitLocked(t, nd)
		nd.lock.Unlock(t.Thread())
		sep, newChild = info.Sep, info.NewNode
		phase = phaseUp
		if len(path) > 0 {
			cur = path[len(path)-1]
			path = path[:len(path)-1]
			continue
		}
		if cur = tr.growRoot(t, cur, sep); cur.IsNil() {
			return inserted
		}
	}
}
