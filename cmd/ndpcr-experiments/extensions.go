package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"

	"ndpcr/internal/miniapps"
	"ndpcr/internal/model"
	"ndpcr/internal/report"
	"ndpcr/internal/units"
)

// runExt evaluates the extension/ablation studies DESIGN.md calls out,
// beyond the paper's published figures. An optional section narrows the
// run: "ablations" (the original studies), "erasure" (the redundancy-set
// level sweep), or "elastic" (the N→M restart reshape-cost sweep).
func runExt(section string) error {
	switch section {
	case "":
		for i, f := range []func() error{runExtAblations, runExtErasure, runExtElastic} {
			if i > 0 {
				fmt.Println()
			}
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	case "ablations":
		return runExtAblations()
	case "erasure":
		return runExtErasure()
	case "elastic":
		return runExtElastic()
	}
	return fmt.Errorf("unknown ext section %q (sections: ablations, erasure, elastic)", section)
}

// runExtAblations covers the original studies:
//
//  1. serializing vs overlapping the NDP's compression and transmission
//     (§4.2.2's design choice);
//  2. NVM-bandwidth exclusivity during host commits (§4.2.1);
//  3. incremental NDP drains (the conclusion's proposed extension) as a
//     model what-if, swept over the per-interval change ratio — the live
//     stack stores full checkpoints only (EXPERIMENTS.md has the reason).
func runExtAblations() error {
	p := params()
	p.PLocal = 0.85

	// 1. Overlap vs serialize.
	fmt.Println("Ablation 1: NDP drain pipeline — overlap vs serialize (factor 73%)")
	tab := &report.Table{Headers: []string{"Drain pipeline", "Drain time", "NDP ratio", "Progress"}}
	for _, serialize := range []bool{false, true} {
		pv := model.WithCompression(p, 0.73)
		pv.SerializeDrain = serialize
		ev, err := model.Evaluate(model.ConfigLocalIONDP, pv)
		if err != nil {
			return err
		}
		label := "overlapped (paper)"
		if serialize {
			label = "serialized"
		}
		tab.AddRow(label, pv.DrainTime().String(), fmt.Sprintf("%d", ev.Ratio),
			fmt.Sprintf("%.1f%%", ev.Efficiency()*100))
	}
	tab.Fprint(os.Stdout)

	// 2. NVM exclusivity. Visible only when commits occupy a meaningful
	// share of the period, so evaluate at a slow 2 GB/s local NVM too.
	fmt.Println("\nAblation 2: NVM exclusivity during host commits (factor 73%)")
	tab2 := &report.Table{Headers: []string{"Local NVM", "Exclusive", "Effective ratio", "Progress"}}
	for _, bw := range []units.Bandwidth{15 * units.GBps, 2 * units.GBps} {
		for _, excl := range []bool{false, true} {
			pv := model.WithLocalBW(model.WithCompression(p, 0.73), bw)
			pv.LocalInterval = 0
			pv.NVMExclusive = excl
			ev, err := model.Evaluate(model.ConfigLocalIONDP, pv)
			if err != nil {
				return err
			}
			tab2.AddRow(bw.String(), fmt.Sprintf("%v", excl),
				fmt.Sprintf("%d", ev.Ratio), fmt.Sprintf("%.1f%%", ev.Efficiency()*100))
		}
	}
	tab2.Fprint(os.Stdout)
	fmt.Println("(With compressed drains shorter than the compute interval the drain")
	fmt.Println("never overlaps a commit, so exclusivity costs nothing here — which is")
	fmt.Println("why §4.2.1 can afford to give the host all NVM bandwidth.)")

	// 3. Incremental drains.
	fmt.Println("\nExtension: incremental NDP drains (conclusion's proposal; modelled, not built), factor 73%")
	tab3 := &report.Table{Headers: []string{"Change ratio", "Drain time", "NDP ratio", "Progress"}}
	for _, ratio := range []float64{0, 0.5, 0.25, 0.10, 0.05} {
		pv := model.WithCompression(p, 0.73)
		pv.IncrementalRatio = ratio
		ev, err := model.Evaluate(model.ConfigLocalIONDP, pv)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("%.0f%% changed", ratio*100)
		if ratio == 0 {
			label = "full drains (paper)"
		}
		tab3.AddRow(label, pv.DrainTime().String(), fmt.Sprintf("%d", ev.Ratio),
			fmt.Sprintf("%.1f%%", ev.Efficiency()*100))
	}
	tab3.Fprint(os.Stdout)
	fmt.Println("\nIncremental drains shrink the I/O checkpoint lag toward the local")
	fmt.Println("cadence, squeezing the residual rerun-from-I/O overhead toward zero.")
	fmt.Println("(A model what-if: it charges a restore one checkpoint whatever the")
	fmt.Println("drain shipped. The live stack stores full checkpoints only; the dedup")
	fmt.Println("table below measures how much consecutive checkpoints really share.)")

	// 3b. Restore pipelining (§4.3's design discussion): the naive restore
	// stages and then decompresses; the paper's pipelined restore costs
	// only the fetch.
	fmt.Println("\nAblation 3: restore-from-I/O pipeline (factor 73%, PLocal 20% to stress restores)")
	tabR := &report.Table{Headers: []string{"Restore path", "Restore-I/O stall", "Progress"}}
	for _, serialize := range []bool{false, true} {
		pv := model.WithPLocal(model.WithCompression(p, 0.73), 0.20)
		pv.SerializeRestore = serialize
		ev, err := model.Evaluate(model.ConfigLocalIONDP, pv)
		if err != nil {
			return err
		}
		label := "pipelined (paper)"
		if serialize {
			label = "staged + serialized (naive)"
		}
		tabR.AddRow(label, pv.RestoreIO().String(), fmt.Sprintf("%.1f%%", ev.Efficiency()*100))
	}
	tabR.Fprint(os.Stdout)

	// 4. Cross-checkpoint dedup (the other half of the conclusion's
	// proposal), measured on live mini-app checkpoints.
	fmt.Println("\nExtension: cross-checkpoint dedup, distinct SHA-256 digests of 64 KiB blocks (measured, not built)")
	if err := runDedupStudy(); err != nil {
		return err
	}
	return nil
}

// runExtErasure sweeps the redundancy-set (erasure) checkpoint level over
// group size × parity × PErasure, bracketed by the two configurations it
// interpolates between: pure I/O fallback below (every non-local failure
// reruns from the parallel file system) and partner-copy above (a full
// replica one link-hop away). The erasure rows land between the brackets:
// dearer to reach than a partner replica, far cheaper than the I/O store.
func runExtErasure() error {
	p := params()
	p = model.WithCompression(p, 0.73)
	p = model.WithPLocal(p, 0.75)

	fmt.Println("Extension: Reed-Solomon redundancy-set level (factor 73%, PLocal 75%)")
	tab := &report.Table{Headers: []string{"Config", "k", "m", "P(level)", "Encode", "Restore", "Progress"}}

	addRow := func(label string, pv model.Params, k, m string, plevel float64, enc, rst string) error {
		ev, err := model.Evaluate(model.ConfigLocalIONDP, pv)
		if err != nil {
			return err
		}
		tab.AddRow(label, k, m, fmt.Sprintf("%.0f%%", plevel*100), enc, rst,
			fmt.Sprintf("%.1f%%", ev.Efficiency()*100))
		return nil
	}

	// Lower bound: the 25% of failures that miss local NVM rerun from the
	// I/O store.
	if err := addRow("I/O fallback (lower bound)", p, "-", "-", 0,
		"-", p.RestoreIO().String()); err != nil {
		return err
	}

	for _, pe := range []float64{0.10, 0.20} {
		for _, k := range []int{4, 8, 16} {
			for _, m := range []int{1, 2, 3} {
				pv := p
				pv.PErasure = pe
				pv.ErasureGroup, pv.ErasureParity = k, m
				pv.ErasureEveryK = 4
				label := "erasure"
				if m == 1 {
					label = "erasure (XOR)"
				}
				if err := addRow(label, pv, fmt.Sprintf("%d", k), fmt.Sprintf("%d", m), pe,
					pv.DeltaErasure().String(), pv.RestoreErasure().String()); err != nil {
					return err
				}
			}
		}
	}

	// Upper bound: a full partner replica absorbs the same failure slice at
	// a single-link restore cost and no coding work.
	pp := p
	pp.PPartner = 0.20
	if err := addRow("partner copy (upper bound)", pp, "-", "-", 0.20,
		"-", pp.RestorePartner().String()); err != nil {
		return err
	}
	tab.Fprint(os.Stdout)
	fmt.Println("\nXOR parity (m=1) keeps the encode ship-bound; m>1 Reed-Solomon pays")
	fmt.Println("coding passes but survives multi-node loss. All variants beat rerunning")
	fmt.Println("from the I/O store without dedicating a whole partner replica.")
	return nil
}

// runDedupStudy cuts consecutive checkpoints of each mini-app into 64 KiB
// blocks and reports what a content-addressed store would hold: logical is
// every block's bytes, physical the bytes of the first block seen with each
// SHA-256 digest. 8 checkpoints at Medium size, 3 at Small under -quick.
func runDedupStudy() error {
	const blockSize = 64 << 10
	size, ckpts := miniapps.Medium, 8
	if *flagQuick {
		size, ckpts = miniapps.Small, 3
	}
	tab := &report.Table{Headers: []string{"Mini-app", "Ckpts", "Logical", "Physical", "Stored", "Dedup factor"}}
	for _, name := range miniapps.Names() {
		app, err := miniapps.New(name, size, *flagSeed)
		if err != nil {
			return err
		}
		seen := make(map[[sha256.Size]byte]struct{})
		var logical, physical int
		for c := 0; c < ckpts; c++ {
			for s := 0; s < 2; s++ {
				if err := app.Step(); err != nil {
					return err
				}
			}
			var buf bytes.Buffer
			if err := app.Checkpoint(&buf); err != nil {
				return err
			}
			data := buf.Bytes()
			for lo := 0; lo < len(data); lo += blockSize {
				block := data[lo:min(lo+blockSize, len(data))]
				logical += len(block)
				digest := sha256.Sum256(block)
				if _, dup := seen[digest]; !dup {
					seen[digest] = struct{}{}
					physical += len(block)
				}
			}
		}
		factor := 1 - float64(physical)/float64(logical)
		tab.AddRow(name, fmt.Sprintf("%d", ckpts),
			units.Bytes(logical).String(), units.Bytes(physical).String(),
			fmt.Sprintf("%.1f%%", (1-factor)*100), fmt.Sprintf("%.1f%%", factor*100))
	}
	tab.Fprint(os.Stdout)
	fmt.Println("(Dedup across consecutive checkpoints is workload-dependent: apps")
	fmt.Println("whose state evolves everywhere — CG Krylov vectors, MD positions —")
	fmt.Println("dedup poorly; apps with stable regions dedup well. Physical is what a")
	fmt.Println("content-addressed store would hold; the live store keeps every block.)")
	return nil
}

// runExtElastic sweeps the elastic N→M restart reshape cost (the restore
// planner's analytic term): a job checkpointed at N=8 restarts at varying
// M, so each restart rank fetches N/M checkpoints' worth of bytes from
// global I/O and pays a re-framing pass. PLocal is lowered to stress
// restores, since an elastic restart by construction recovers from the
// store, never from the dead topology's local levels.
func runExtElastic() error {
	const n = 8
	p := model.WithPLocal(model.WithCompression(params(), 0.73), 0.20)

	fmt.Println("Extension: elastic N→M restart reshape cost (factor 73%, PLocal 20% to stress restores)")
	tab := &report.Table{Headers: []string{"Restart shape", "Fetched/target", "Restore-I/O stall", "Progress"}}
	for _, m := range []int{1, 2, 4, 8, 12, 16} {
		pv := p
		pv.ElasticSourceRanks, pv.ElasticTargetRanks = n, m
		ev, err := model.Evaluate(model.ConfigLocalIONDP, pv)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("%d→%d", n, m)
		if m == n {
			label += " (identity)"
		}
		fetched := units.Bytes(float64(pv.CheckpointSize) * float64(n) / float64(m))
		tab.AddRow(label, fetched.String(), pv.RestoreElastic().String(),
			fmt.Sprintf("%.1f%%", ev.Efficiency()*100))
	}
	tab.Fprint(os.Stdout)
	fmt.Println("\nShrinking the restart concentrates the whole job's state onto fewer")
	fmt.Println("ranks — the per-target fetch dominates; growing it spreads the fetch")
	fmt.Println("until the reshape pass is all that separates it from same-shape.")
	return nil
}
