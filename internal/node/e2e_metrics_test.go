package node

import (
	"context"
	"strings"
	"testing"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/metrics"
)

// End-to-end observability check: on a one-block drain (nothing for
// compression and transmission to overlap), every phase of a checkpoint's
// trip through the pipeline is a distinct span and the gap-filled timeline
// must tile the checkpoint's full wall-clock duration — the per-phase timings
// sum to the total, so the breakdown can be trusted for bottleneck
// attribution.
func TestPhaseTimingsSumToTotal(t *testing.T) {
	gz, _ := compress.Lookup("gzip", 1)
	n, _ := newNode(t, func(c *Config) {
		c.Codec = gz
		c.BlockSize = 1 << 20 // the 300 KB snapshot below is one block
	})
	wallStart := time.Now()
	id, err := n.Commit(context.Background(), snapshot(300_000, 2), Metadata{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, n, id)
	wall := time.Since(wallStart)

	tl, ok := n.Timelines().Timeline(metrics.KindCheckpoint, id)
	if !ok {
		t.Fatal("no completed checkpoint timeline")
	}
	for _, p := range []metrics.Phase{
		metrics.PhaseCommit, metrics.PhasePause, metrics.PhaseRead,
		metrics.PhaseCompress, metrics.PhaseXmit, metrics.PhaseAck,
	} {
		if tl.PhaseDuration(p) < 0 {
			t.Errorf("phase %s has negative duration", p)
		}
		found := false
		for _, s := range tl.Spans {
			if s.Phase == p {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("phase %s missing from timeline %v", p, tl.Spans)
		}
	}
	const eps = time.Millisecond
	if diff := (tl.Sum() - tl.Total()).Abs(); diff > eps {
		t.Errorf("one-block phases sum to %v but total is %v (diff %v > %v)",
			tl.Sum(), tl.Total(), diff, eps)
	}
	if tl.Total() <= 0 || tl.Total() > wall+eps {
		t.Errorf("timeline total %v outside the observed wall time %v", tl.Total(), wall)
	}

	// The restore path streams: block fetch overlaps host-parallel
	// decompression, so its fetch/decompress spans are wall-clock
	// envelopes that may overlap — the summed phases can exceed the
	// total (the realized overlap), but never undershoot it.
	n.FailLocal()
	if _, _, _, err := n.Restore(context.Background()); err != nil {
		t.Fatal(err)
	}
	rtl, ok := n.Timelines().Timeline(metrics.KindRestore, id)
	if !ok {
		t.Fatal("no completed restore timeline")
	}
	if rtl.PhaseDuration(metrics.PhaseFetch) <= 0 || rtl.PhaseDuration(metrics.PhaseDecompress) <= 0 {
		t.Errorf("restore timeline missing fetch/decompress: %v", rtl.Spans)
	}
	if rtl.Sum() < rtl.Total()-eps {
		t.Errorf("restore phases sum to %v, below total %v (spans must cover the envelope)",
			rtl.Sum(), rtl.Total())
	}
}

// With the overlapped (default) drain, compression and transmission
// pipeline: the summed phase durations legitimately exceed the wall-clock
// total, and the realized overlap is their difference. The timeline must
// still anchor on the commit and finish with the ack.
func TestPhaseTimelineOverlappedDrain(t *testing.T) {
	gz, _ := compress.Lookup("gzip", 1)
	n, _ := newNode(t, func(c *Config) { c.Codec = gz })
	id, err := n.Commit(context.Background(), snapshot(300_000, 5), Metadata{Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, n, id)
	tl, ok := n.Timelines().Timeline(metrics.KindCheckpoint, id)
	if !ok {
		t.Fatal("no completed checkpoint timeline")
	}
	if tl.Spans[0].Phase != metrics.PhaseCommit {
		t.Errorf("timeline starts with %s, want commit", tl.Spans[0].Phase)
	}
	if got := tl.Spans[len(tl.Spans)-1].Phase; got != metrics.PhaseAck {
		t.Errorf("timeline ends with %s, want ack", got)
	}
	if tl.Sum() < tl.Total() {
		t.Errorf("overlapped sum %v below total %v (spans must cover the envelope)",
			tl.Sum(), tl.Total())
	}
}

// The gateway hands one registry to every session's node, and cluster does
// the same for its ranks: the NVM occupancy series are the sum over those
// nodes' devices (sampled gauges kept the first node's functions and reported
// that one device for ever), and a closed node stops counting.
func TestNVMGaugesSumAcrossNodesOnOneRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	first, _ := newNode(t, func(c *Config) { c.Metrics = reg; c.NVMCapacity = 1 << 20; c.DisableNDP = true })
	second, _ := newNode(t, func(c *Config) { c.Metrics = reg; c.NVMCapacity = 1 << 20; c.DisableNDP = true })
	for step := 1; step <= 2; step++ {
		if _, err := second.Commit(context.Background(), snapshot(1000, 1), Metadata{Step: step}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := first.Commit(context.Background(), snapshot(500, 2), Metadata{Step: 1}); err != nil {
		t.Fatal(err)
	}
	if err := second.Device().Lock(2); err != nil {
		t.Fatal(err)
	}
	expose := func() string {
		var sb strings.Builder
		if err := reg.WriteProm(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	check := func(when string, want ...string) {
		t.Helper()
		text := expose()
		for _, line := range want {
			if !strings.Contains(text, line+"\n") {
				t.Errorf("%s: exposition lacks %q", when, line)
			}
		}
	}
	check("two live nodes",
		"ndpcr_nvm_capacity_bytes 2097152",
		"ndpcr_nvm_used_bytes 2500",
		"ndpcr_nvm_resident_checkpoints 3",
		"ndpcr_nvm_locked_checkpoints 1",
		"ndpcr_nvm_locked_bytes 1000")

	second.FailLocal()
	check("second node wiped",
		"ndpcr_nvm_capacity_bytes 2097152",
		"ndpcr_nvm_used_bytes 500",
		"ndpcr_nvm_resident_checkpoints 1",
		"ndpcr_nvm_locked_checkpoints 0",
		"ndpcr_nvm_locked_bytes 0")

	first.Close()
	check("first node closed",
		"ndpcr_nvm_capacity_bytes 1048576",
		"ndpcr_nvm_used_bytes 0",
		"ndpcr_nvm_resident_checkpoints 0")
}
