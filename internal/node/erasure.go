package node

import (
	"fmt"

	"ndpcr/internal/node/nvm"
)

// Erasure-set level (§3.4): between the partner copy and global I/O sits a
// redundancy set — each rank's checkpoint is Reed-Solomon encoded into
// shards striped across nodes *outside* its own group, so losing a whole
// node group (which takes out both the local copies and the in-group
// partner copies) still recovers from surviving shards at NVM speed
// instead of falling back to the global store. The cluster layer owns the
// codec and shard routing; this file holds the access methods of the
// per-node shard region and the restore hook the cluster installs.

// ErasureSet is the cluster-side view a node consults when recovering from
// the erasure level. ShardIDs lists checkpoint IDs for which enough shards
// survive to reconstruct the given rank, ascending; Reconstruct rebuilds
// one of them, digest-verified.
type ErasureSet interface {
	ShardIDs(rank int) []uint64
	Reconstruct(rank int, id uint64) ([]byte, Metadata, error)
}

// StoreErasureShard stores one wire-encoded shard of another rank's
// checkpoint in this node's erasure region. The cluster calls it on each
// shard holder during a coordinated checkpoint.
func (n *Node) StoreErasureShard(owner, index int, id uint64, wire []byte, meta Metadata) error {
	key, err := n.erasure.key(owner, index, id)
	if err != nil {
		return err
	}
	if err := n.erasure.dev.Put(nvm.Checkpoint{ID: key, Data: wire, Meta: meta.toMap(id)}); err != nil {
		return fmt.Errorf("node: erasure shard rank %d ckpt %d idx %d: %w", owner, id, index, err)
	}
	return nil
}

// ErasureShard retrieves one wire-encoded shard from this node's erasure
// region, reporting whether it was present.
func (n *Node) ErasureShard(owner, index int, id uint64) ([]byte, bool) {
	ckpt, err := n.erasure.get(owner, index, id)
	return ckpt.Data, err == nil
}

// DiscardErasureShard removes one shard from this node's erasure region
// (the abort path of a failed coordinated checkpoint). Discarding a shard
// that was never stored is a no-op.
func (n *Node) DiscardErasureShard(owner, index int, id uint64) {
	n.erasure.discard(owner, index, id)
}

// ErasureShardIDs lists the checkpoint IDs of the shards this node holds
// for a given owner rank, one entry per resident shard (a node holding two
// shards of the same checkpoint reports its ID twice).
func (n *Node) ErasureShardIDs(owner int) []uint64 { return n.erasure.ids(owner) }

// SetErasureSet wires this node's restore path to the cluster's erasure
// router. The cluster layer calls it during assembly.
func (n *Node) SetErasureSet(set ErasureSet) {
	n.mu.Lock()
	n.eraSet = set
	n.mu.Unlock()
}

// restoreFromErasure tries to reconstruct this rank's checkpoint from the
// erasure set.
func (n *Node) restoreFromErasure(id uint64) ([]byte, Metadata, bool) {
	n.mu.Lock()
	set := n.eraSet
	n.mu.Unlock()
	if set == nil {
		return nil, Metadata{}, false
	}
	data, meta, err := set.Reconstruct(n.cfg.Rank, id)
	if err != nil {
		return nil, Metadata{}, false
	}
	return data, meta, true
}

// erasureLatest returns the newest checkpoint ID reconstructible from the
// erasure set, if any.
func (n *Node) erasureLatest() (uint64, bool) {
	n.mu.Lock()
	set := n.eraSet
	n.mu.Unlock()
	if set == nil {
		return 0, false
	}
	ids := set.ShardIDs(n.cfg.Rank)
	if len(ids) == 0 {
		return 0, false
	}
	return ids[len(ids)-1], true
}
