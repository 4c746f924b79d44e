package ndp

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// index encodes i as a block, so a consumer can tell which produce made it.
func index(i int) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(i)) }

// TestOrderedConsumesInIndexOrder: whatever order the workers finish in —
// each produce yields a random number of times first — every index is
// produced once and consumed once, in order, with its own block.
func TestOrderedConsumesInIndexOrder(t *testing.T) {
	const n = 300
	for _, workers := range []int{2, 4, 9} {
		rng := rand.New(rand.NewPCG(uint64(workers), 7))
		yields := make([]int, n)
		for i := range yields {
			yields[i] = rng.IntN(50)
		}
		var produced [n]atomic.Int32
		next := 0
		err := Ordered(context.Background(), n, workers, func(_ context.Context, i int) ([]byte, error) {
			produced[i].Add(1)
			for range yields[i] {
				runtime.Gosched()
			}
			return index(i), nil
		}, func(i int, b []byte) error {
			if i != next || int(binary.LittleEndian.Uint32(b)) != i {
				t.Fatalf("%d workers: consumed index %d with block %d, want %d", workers, i, binary.LittleEndian.Uint32(b), next)
			}
			next++
			return nil
		})
		if err != nil || next != n {
			t.Fatalf("%d workers: %d blocks consumed, err %v", workers, next, err)
		}
		for i := range produced {
			if c := produced[i].Load(); c != 1 {
				t.Fatalf("%d workers: index %d produced %d times", workers, i, c)
			}
		}
	}
}

// TestOrderedRunsTwoWorkersAheadOfAParkedConsumer: while the consumer holds
// block i, the workers produce up to block i+2×workers and, given every
// chance to, no further.
func TestOrderedRunsTwoWorkersAheadOfAParkedConsumer(t *testing.T) {
	const n, workers = 24, 3
	var produced atomic.Int64
	err := Ordered(context.Background(), n, workers, func(context.Context, int) ([]byte, error) {
		produced.Add(1)
		return nil, nil
	}, func(i int, _ []byte) error {
		if got, want := settle(func() int { return int(produced.Load()) }), min(i+2*workers, n); got != want {
			t.Errorf("consumer at block %d: %d blocks produced, want %d", i, got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOrderedStopsAtAProduceError: block 1 fails while block 0 is still being
// produced. Nothing is consumed, no produce is still running when Ordered
// returns, and the error is what it returns. A block produced before the
// error and waiting its turn is not consumed after it either.
func TestOrderedStopsAtAProduceError(t *testing.T) {
	errBoom := errors.New("boom")
	var running atomic.Int64
	consumed := 0
	err := Ordered(context.Background(), 64, 4, func(ctx context.Context, i int) ([]byte, error) {
		running.Add(1)
		defer running.Add(-1)
		if i == 1 {
			return nil, errBoom
		}
		select {
		case <-ctx.Done():
		case <-time.After(10 * time.Second): // watchdog: nothing cancelled
		}
		for range 100 { // still running a while after the cancel
			runtime.Gosched()
		}
		return index(i), nil
	}, func(int, []byte) error {
		consumed++
		return nil
	})
	if err != errBoom {
		t.Errorf("Ordered = %v, want the produce error", err)
	}
	if consumed != 0 {
		t.Errorf("%d blocks consumed after a produce error", consumed)
	}
	if r := running.Load(); r != 0 {
		t.Errorf("%d produce calls still running after Ordered returned", r)
	}

	// Block 1 is produced first and waits for block 0, which is produced once
	// block 2's produce has started, and block 2 fails while block 0 is being
	// consumed: block 1 was ready before the error and is still not consumed.
	var (
		entered2   = make(chan struct{})
		consuming  = make(chan struct{})
		ctx2       = make(chan context.Context, 1)
		consumedAt []int
	)
	err = Ordered(context.Background(), 8, 2, func(ctx context.Context, i int) ([]byte, error) {
		switch i {
		case 0:
			<-entered2
		case 2:
			ctx2 <- ctx
			close(entered2)
			<-consuming
			return nil, errBoom
		case 3, 4, 5, 6, 7:
			<-ctx.Done()
		}
		return index(i), nil
	}, func(i int, _ []byte) error {
		consumedAt = append(consumedAt, i)
		if i == 0 {
			close(consuming)
			<-(<-ctx2).Done()
		}
		return nil
	})
	if err != errBoom || len(consumedAt) != 1 {
		t.Errorf("Ordered = %v after consuming %v, want the produce error after block 0 alone", err, consumedAt)
	}

	// One worker: the blocks before the failing one are consumed, none after.
	consumed = 0
	err = Ordered(context.Background(), 8, 1, func(_ context.Context, i int) ([]byte, error) {
		if i == 3 {
			return nil, errBoom
		}
		return nil, nil
	}, func(int, []byte) error {
		consumed++
		return nil
	})
	if err != errBoom || consumed != 3 {
		t.Errorf("one worker: Ordered = %v after %d blocks, want the produce error after 3", err, consumed)
	}
}

// TestOrderedConsumeErrorCancelsProduce: a consume that fails while block 1
// is being produced cancels the context that produce sees, and the consume
// error is what Ordered returns.
func TestOrderedConsumeErrorCancelsProduce(t *testing.T) {
	errSink := errors.New("sink closed")
	started := make(chan struct{})
	var cancelled atomic.Bool
	err := Ordered(context.Background(), 16, 4, func(ctx context.Context, i int) ([]byte, error) {
		switch i {
		case 0:
			return nil, nil
		case 1:
			close(started)
			select {
			case <-ctx.Done():
				cancelled.Store(true)
			case <-time.After(10 * time.Second): // watchdog: nothing cancelled
			}
			return nil, ctx.Err()
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}, func(int, []byte) error {
		<-started
		return errSink
	})
	if err != errSink {
		t.Errorf("Ordered = %v, want the consume error", err)
	}
	if !cancelled.Load() {
		t.Error("the produce in flight never saw its context end")
	}
}

// TestOrderedEdges: no blocks means no call; more workers than blocks produce
// each block once; one worker alternates produce and consume; a context that
// has ended consumes nothing.
func TestOrderedEdges(t *testing.T) {
	never := func(context.Context, int) ([]byte, error) {
		t.Error("produce called")
		return nil, nil
	}
	for _, workers := range []int{0, 1, 4} {
		if err := Ordered(context.Background(), 0, workers, never, func(int, []byte) error {
			t.Error("consume called")
			return nil
		}); err != nil {
			t.Errorf("n = 0, %d workers: %v", workers, err)
		}
	}

	var produced atomic.Int64
	var got []int
	err := Ordered(context.Background(), 3, 16, func(_ context.Context, i int) ([]byte, error) {
		produced.Add(1)
		if i >= 3 {
			t.Errorf("produce(%d) of 3 blocks", i)
		}
		return index(i), nil
	}, func(i int, b []byte) error {
		got = append(got, int(binary.LittleEndian.Uint32(b)))
		return nil
	})
	if err != nil || len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 || produced.Load() != 3 {
		t.Errorf("16 workers, 3 blocks: consumed %v after %d produce calls, err %v", got, produced.Load(), err)
	}

	for _, workers := range []int{-1, 0, 1} {
		produces, consumes := 0, 0
		if err := Ordered(context.Background(), 5, workers, func(_ context.Context, i int) ([]byte, error) {
			if i != produces || consumes != i {
				t.Errorf("%d workers: produce(%d) after %d produces and %d consumes", workers, i, produces, consumes)
			}
			produces++
			return nil, nil
		}, func(i int, _ []byte) error {
			if produces != i+1 {
				t.Errorf("%d workers: consume(%d) after %d produces", workers, i, produces)
			}
			consumes++
			return nil
		}); err != nil || consumes != 5 {
			t.Errorf("%d workers: %d blocks consumed, err %v", workers, consumes, err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if err := Ordered(ctx, 5, workers, func(context.Context, int) ([]byte, error) { return nil, nil },
			func(int, []byte) error {
				t.Errorf("%d workers: consume called on an ended context", workers)
				return nil
			}); !errors.Is(err, context.Canceled) {
			t.Errorf("%d workers, ended context: %v", workers, err)
		}
	}
}
