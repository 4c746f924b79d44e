package node

import (
	"context"
	"fmt"
	"time"

	"ndpcr/internal/cluster/elastic"
	"ndpcr/internal/metrics"
)

// fetchRankTo streams an arbitrary source rank's checkpoint from the global
// store into sink.
// Unlike Restore/RestoreID it never consults this node's local levels —
// another rank's NVM, partner copy, or erasure shards live on machines
// that no longer exist after an elastic reshape, so the store is the only
// authoritative source. It is the fetch primitive the elastic restore
// executor is built on; the level is always LevelIO on success.
func (n *Node) fetchRankTo(ctx context.Context, rank int, id uint64, sink Sink) error {
	start := time.Now()
	level, err := n.serveIO(ctx, rank, id, sink)
	n.recordRestore(level, start, err)
	return err
}

// RestoreElastic executes one target's slice of an elastic restore plan:
// it fetches each planned (source rank, line, shard range), re-assembles
// the shards this target owns, and returns them as a fresh snapshot frame.
//
// Fetch routing: a Whole fetch of this node's own rank uses the full
// restore hierarchy (NVM → partner → erasure → I/O) unless storeOnly is
// set, so same-shape plans keep today's multilevel behavior; every other
// fetch is store-only (fetchRankTo). A source payload that fails frame
// decoding, or a shard range the payload cannot satisfy, is an error — the
// cluster treats it as an unreadable restart line and falls back to an
// older one.
func (n *Node) RestoreElastic(ctx context.Context, tp elastic.TargetPlan, storeOnly bool) ([]byte, Metadata, Level, error) {
	return collect(func(sink Sink) error { return n.RestoreElasticTo(ctx, tp, storeOnly, sink) })
}

// RestoreElasticTo is RestoreElastic streaming into sink (a Whole fetch).
func (n *Node) RestoreElasticTo(ctx context.Context, tp elastic.TargetPlan, storeOnly bool, sink Sink) error {
	if len(tp.Fetches) == 1 && tp.Fetches[0].Whole {
		f := tp.Fetches[0]
		if f.SourceRank == n.cfg.Rank && !storeOnly {
			return n.RestoreIDTo(ctx, f.Line, sink)
		}
		return n.fetchRankTo(ctx, f.SourceRank, f.Line, sink)
	}
	start := time.Now()
	data, meta, level, err := n.restoreElastic(ctx, tp)
	if err == nil {
		err = sink.whole(data, meta, level)
	}
	n.recordRestore(level, start, err)
	return err
}

func (n *Node) restoreElastic(ctx context.Context, tp elastic.TargetPlan) ([]byte, Metadata, Level, error) {
	if len(tp.Fetches) == 0 {
		// M exceeds the global shard count: this target owns nothing and
		// restores the empty frame. Step -1 marks the metadata synthetic so
		// the cluster's step-consistency check skips it.
		return elastic.Encode(nil), Metadata{Job: n.cfg.Job, Rank: n.cfg.Rank, Step: -1}, LevelIO, nil
	}
	var shards [][]byte
	var meta Metadata
	for i, f := range tp.Fetches {
		if f.Whole {
			return nil, Metadata{}, LevelNone, fmt.Errorf(
				"node: elastic restore target %d: whole fetch mixed with shard fetches", tp.Target)
		}
		payload, m, _, err := collect(func(sink Sink) error { return n.fetchFromIO(ctx, f.SourceRank, f.Line, sink) })
		if err != nil {
			return nil, Metadata{}, LevelNone, fmt.Errorf(
				"node: elastic restore target %d: source %d: %w", tp.Target, f.SourceRank, err)
		}
		src, err := elastic.Decode(payload)
		if err != nil {
			return nil, Metadata{}, LevelNone, fmt.Errorf(
				"node: elastic restore target %d: source %d checkpoint %d: %w",
				tp.Target, f.SourceRank, f.Line, err)
		}
		if f.Lo < 0 || f.Hi > len(src) || f.Lo >= f.Hi {
			return nil, Metadata{}, LevelNone, fmt.Errorf(
				"node: elastic restore target %d: plan range [%d,%d) outside source %d's %d shards (stale shard metadata?)",
				tp.Target, f.Lo, f.Hi, f.SourceRank, len(src))
		}
		shards = append(shards, src[f.Lo:f.Hi]...)
		if i == 0 {
			meta = m
		} else if m.Step != meta.Step {
			return nil, Metadata{}, LevelNone, fmt.Errorf(
				"node: elastic restore target %d: source %d at step %d, source %d at step %d",
				tp.Target, tp.Fetches[0].SourceRank, meta.Step, f.SourceRank, m.Step)
		}
	}
	n.timelines.Finish(metrics.KindRestore, tp.Fetches[0].Line)
	meta.Rank = n.cfg.Rank
	meta.Shards = len(shards)
	return elastic.Encode(shards), meta, LevelIO, nil
}
