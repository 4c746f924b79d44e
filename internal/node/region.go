package node

import (
	"fmt"

	"ndpcr/internal/node/nvm"
)

// region is one of a node's two stores of other ranks' redundancy (§3.4):
// partner copies or erasure shards. Each is a device of the node's NVM
// capacity (a real deployment would partition one device; separate Device
// values model the regions, each with its own capacity and eviction
// pressure), keyed by a packed (rank, shard index, checkpoint id).
type region struct {
	dev *nvm.Device
	// name ("partner", "erasure") and rankWord name the region and its rank
	// argument in key errors.
	name, rankWord string
	// indexBits is the width of the shard index, between the rank above it
	// and the regionIDBits of checkpoint id below; 0 for whole copies.
	indexBits uint
}

// The key space: id in the low 40 bits, rank+1 and index in the 23 above
// (so no key is 0). Ranks and ids are bounded far below that in any
// realistic run; the composition is checked.
const (
	regionIDBits   = 40
	regionRankBits = 23
)

// newRegions builds a node's partner and erasure regions. The capacity is
// the node's own, which nvm.NewDevice has already accepted.
func newRegions(capacity int64) (partner, erasure region) {
	pd, _ := nvm.NewDevice(capacity)
	ed, _ := nvm.NewDevice(capacity)
	return region{dev: pd, name: "partner", rankWord: "partner"},
		region{dev: ed, name: "erasure", rankWord: "erasure owner", indexBits: 8}
}

func (r *region) key(rank, index int, id uint64) (uint64, error) {
	if rank < 0 || rank >= 1<<(regionRankBits-r.indexBits) {
		return 0, fmt.Errorf("node: %s rank %d out of range", r.rankWord, rank)
	}
	if index < 0 || index >= 1<<r.indexBits {
		return 0, fmt.Errorf("node: %s shard index %d out of range", r.name, index)
	}
	if id >= 1<<regionIDBits {
		return 0, fmt.Errorf("node: checkpoint id %d out of %s-key range", id, r.name)
	}
	return uint64(rank+1)<<(regionIDBits+r.indexBits) | uint64(index)<<regionIDBits | id, nil
}

func (r *region) get(rank, index int, id uint64) (nvm.Checkpoint, error) {
	key, err := r.key(rank, index, id)
	if err != nil {
		return nvm.Checkpoint{}, err
	}
	return r.dev.Get(key)
}

// discard removes an entry; one that was never stored is a no-op.
func (r *region) discard(rank, index int, id uint64) {
	if key, err := r.key(rank, index, id); err == nil {
		r.dev.Discard(key)
	}
}

// ids lists the checkpoint IDs of the entries held for rank, in key order
// (ascending for whole copies), one per entry.
func (r *region) ids(rank int) []uint64 {
	lo := uint64(rank+1) << (regionIDBits + r.indexBits)
	hi := lo + 1<<(regionIDBits+r.indexBits)
	var out []uint64
	for _, key := range r.dev.IDs() {
		if key >= lo && key < hi {
			out = append(out, key&(1<<regionIDBits-1))
		}
	}
	return out
}
