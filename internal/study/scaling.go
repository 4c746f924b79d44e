package study

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/miniapps"
	"ndpcr/internal/units"
)

// Table 3's core-count arithmetic assumes compression throughput scales
// linearly with cores (the paper: "Four such drives in parallel", "four
// cores can reach..."). This file measures that assumption on the real
// codecs the way the NDP engine uses them: the checkpoint's 1 MiB blocks
// compressed independently by w goroutines — the pbzip2-style parallelism
// the paper cites.

// ScalingPoint is the measured throughput at one worker count.
type ScalingPoint struct {
	Workers int
	Speed   units.Bandwidth
	// Speedup is Speed relative to the 1-worker measurement of the same
	// sweep.
	Speedup float64
}

// MeasureScaling compresses checkpoint data from the given app with the
// codec at each worker count and reports throughput. Repeats picks the
// fastest of N runs to damp scheduler noise.
func MeasureScaling(app string, size miniapps.Size, codec compress.Codec,
	workers []int, repeats int, seed uint64) ([]ScalingPoint, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("study: no worker counts given")
	}
	if repeats < 1 {
		repeats = 1
	}
	a, err := miniapps.New(app, size, seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 4; i++ {
		if err := a.Step(); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := a.Checkpoint(&buf); err != nil {
		return nil, err
	}
	data := buf.Bytes()

	out := make([]ScalingPoint, 0, len(workers))
	base := units.Bandwidth(0)
	for _, w := range workers {
		if w < 1 {
			return nil, fmt.Errorf("study: worker count %d < 1", w)
		}
		best := time.Duration(1<<63 - 1)
		for r := 0; r < repeats; r++ {
			start := time.Now()
			if err := compressBlocks(codec, data, w); err != nil {
				return nil, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		speed := units.Bandwidth(float64(len(data)) / best.Seconds())
		pt := ScalingPoint{Workers: w, Speed: speed}
		if base == 0 {
			base = speed
		}
		if base > 0 {
			pt.Speedup = float64(speed) / float64(base)
		}
		out = append(out, pt)
	}
	return out, nil
}

// compressBlocks compresses data's 1 MiB blocks on w goroutines, each
// claiming the next block until the blocks run out or one of its own fails.
func compressBlocks(codec compress.Codec, data []byte, w int) error {
	const blockSize = 1 << 20
	size := int64(len(data))
	var next atomic.Int64
	errs := make([]error, w)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for off := next.Add(blockSize) - blockSize; errs[g] == nil && off < size; off = next.Add(blockSize) - blockSize {
				_, errs[g] = codec.Compress(nil, data[off:min(off+blockSize, size)])
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
