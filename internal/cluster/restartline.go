package cluster

import (
	"context"
	"fmt"
	"sort"

	"ndpcr/internal/node/iostore"
)

// StoreRestartLines computes the restart lines visible from the global
// store alone: the checkpoint IDs present for every rank in [0, ranks),
// newest first. It is the store-level projection of Cluster.RestartLines
// for callers — the gateway resuming a run it did not execute — that have
// no live nodes and therefore no NVM, partner, or erasure inventories to
// merge; the global store is the only level a service front-end can see.
//
// The same "unknown, not absent" rule applies as in Cluster.available: an
// inventory error on any rank wraps ErrLevelUnavailable, and lines found
// despite it are still genuinely restorable (the ranks that answered vouch
// for them), so a caller may proceed on the returned lines and retry for a
// possibly-newer one once the store heals.
func StoreRestartLines(ctx context.Context, store iostore.Backend, job string, ranks int) ([]uint64, error) {
	if ranks <= 0 {
		return nil, fmt.Errorf("cluster: StoreRestartLines: ranks must be positive, got %d", ranks)
	}
	return commonLines(ranks, func(i int) (map[uint64]bool, error) {
		ids, err := store.IDs(ctx, job, i)
		if err != nil {
			return nil, fmt.Errorf("%w: rank %d global-store inventory: %v", ErrLevelUnavailable, i, err)
		}
		avail := make(map[uint64]bool, len(ids))
		for _, id := range ids {
			avail[id] = true
		}
		return avail, nil
	})
}

// commonLines intersects the restorable-ID sets of ranks [0, ranks), newest
// first, and returns the first inventory error alongside. avail may return
// a partial set with its error (the levels that answered), or nil when the
// rank's inventory is wholly unknown — unknown, not absent: such a rank
// must not veto every line with a vacuously empty set, so its constraint is
// skipped and the error tells the caller the returned lines are vouched for
// only by the ranks that answered. If every rank is unknown, nothing is
// known (nil lines), not "nothing exists".
func commonLines(ranks int, avail func(rank int) (map[uint64]bool, error)) ([]uint64, error) {
	var common map[uint64]bool
	var invErr error
	for i := 0; i < ranks && (common == nil || len(common) > 0); i++ {
		ids, err := avail(i)
		if err != nil && invErr == nil {
			invErr = err
		}
		switch {
		case ids == nil:
		case common == nil:
			common = ids
		default:
			for id := range common {
				if !ids[id] {
					delete(common, id)
				}
			}
		}
	}
	if common == nil {
		return nil, invErr
	}
	out := make([]uint64, 0, len(common))
	for id := range common {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out, invErr
}
