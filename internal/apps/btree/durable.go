package btree

import (
	"compmig/internal/core"
	"compmig/internal/gid"
	"compmig/internal/store"
)

// Durability: every committed node mutation logs the node's full image
// into its home processor's WAL (internal/store), so a wipe fault can
// discard node contents and recovery rebuilds them from checkpoint +
// suffix. Full images rather than deltas keep replay idempotent — a
// second wipe of the same processor replays to the same state — at a
// log-bandwidth cost the cycle model charges like any other work.

// encodeNode flattens a node's durable content into log words. The
// layout is versionless and self-sizing: flags, bounds, key count, keys,
// then children for interior nodes. Identity (g), the writer lock, and
// the shared-memory layout addresses are deliberately excluded: they are
// allocation metadata the wipe model preserves, not replayable state.
func encodeNode(nd *node) []uint64 {
	flags := uint64(0)
	if nd.leaf {
		flags |= 1
	}
	if nd.kidsAreLeaves {
		flags |= 2
	}
	blob := make([]uint64, 0, 4+len(nd.keys)+len(nd.children))
	blob = append(blob, flags, nd.high, uint64(nd.right), uint64(len(nd.keys)))
	blob = append(blob, nd.keys...)
	if !nd.leaf {
		for _, ch := range nd.children {
			blob = append(blob, uint64(ch))
		}
	}
	return blob
}

// decodeNodeInto reinstalls an encoded image into nd in place,
// preserving identity, lock state, and shared-memory addresses.
func decodeNodeInto(nd *node, blob []uint64) {
	flags := blob[0]
	nd.leaf = flags&1 != 0
	nd.kidsAreLeaves = flags&2 != 0
	nd.high = blob[1]
	nd.right = gid.GID(blob[2])
	n := int(blob[3])
	nd.keys = append(nd.keys[:0], blob[4:4+n]...)
	nd.children = nd.children[:0]
	if !nd.leaf {
		for _, w := range blob[4+n : 4+2*n] {
			nd.children = append(nd.children, gid.GID(w))
		}
	}
}

// nodeRecord builds the WAL image record for nd's current content.
func nodeRecord(nd *node) store.Record {
	return store.Record{Kind: store.KindState, G: nd.g, Blob: encodeNode(nd)}
}

// logNode durably logs nd's current image at its home, blocking the
// mutating thread when it runs at the home (ack-after-durable) and
// charging the home asynchronously otherwise (a shared-memory frontend
// mutating a remote node). No-op without a WAL.
func (tr *Tree) logNode(t *core.Task, nd *node) {
	if tr.wal == nil {
		return
	}
	tr.wal.Append(t.Thread(), t.Proc(), nodeRecord(nd))
}

// EnableDurability attaches the tree to a store: base images of the
// bulk-loaded nodes seed the checkpoints (loaded state, free of charge),
// and the store's replay/wipe/snapshot hooks are pointed at the tree.
// Apps embedding a tree alongside their own durable state (internal/
// apps/kv) install their own hooks and delegate to SeedImages /
// ApplyRecord / WipeProc instead.
func (tr *Tree) EnableDurability(w *store.Store) {
	tr.wal = w
	if tr.repl != nil {
		tr.repl.SetJournal(w)
	}
	tr.SeedImages(w)
	w.OnApply(tr.ApplyRecord)
	w.OnSnapshot(tr.SnapshotBlob)
	w.OnWipe(func(proc int) int {
		tr.WipeProc(proc)
		return tr.rt.WipeVolatile(proc)
	})
}

// SetWAL makes the tree log mutations to w without installing store
// hooks — the embedded-index case where the embedding app owns the
// hooks. SeedImages must be called separately.
func (tr *Tree) SetWAL(w *store.Store) { tr.wal = w }

// SeedImages installs a base image of every current node into its home
// checkpoint. Call at build time, before any simulated mutation.
func (tr *Tree) SeedImages(w *store.Store) {
	for _, g := range tr.nodes {
		w.Seed(nodeRecord(tr.rt.Objects.State(g).(*node)))
	}
}

// ApplyRecord reinstalls one logged node image during recovery replay.
// KindState and KindMoveIn records both carry full images.
func (tr *Tree) ApplyRecord(r store.Record) {
	decodeNodeInto(tr.rt.Objects.State(r.G).(*node), r.Blob)
}

// SnapshotBlob encodes a node's state for a move-in record (object-
// migration schemes pull nodes across processors while durable).
func (tr *Tree) SnapshotBlob(g gid.GID) []uint64 {
	return encodeNode(tr.rt.Objects.State(g).(*node))
}

// WipeProc models the crash: the contents of every node homed on proc
// are discarded. Recovery replay (store.Store) reinstalls the images;
// node identity, locks, and shared-memory layout addresses survive, as
// allocation metadata would in a system that recovers in place.
func (tr *Tree) WipeProc(proc int) {
	for _, g := range tr.nodes {
		if tr.rt.Objects.Home(g) != proc {
			continue
		}
		nd := tr.rt.Objects.State(g).(*node)
		nd.keys = nil
		nd.children = nil
		nd.right = gid.Nil
		nd.high = 0
		nd.leaf = false
		nd.kidsAreLeaves = false
	}
}
