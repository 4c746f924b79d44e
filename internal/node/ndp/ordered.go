package ndp

import (
	"context"
	"sync"
	"sync/atomic"
)

// Ordered is the block pipeline both directions share: the drain produces
// (compresses) blocks on the NDP cores and consumes them into its send
// window, the restore produces (fetches and decompresses) blocks in its fetch
// window and consumes them into a sink. produce(ctx, i) runs for every index
// in [0, n) on up to workers goroutines; consume(i, b) runs on the caller,
// strictly in index order.
//
// A block holds one of 2×workers tokens from the moment a worker claims its
// index until its consume returns, so a slow consumer holds the producers —
// and the memory they fill — to that many blocks ahead of it. The first error
// from either side cancels the ctx produce sees and is what Ordered returns;
// a block produced after it is never consumed (nor released: it is garbage).
// Ordered returns only once every worker has: a produce that reads memory the
// caller frees on return (an NVM region) has stopped by then.
//
// With one worker there is nothing to overlap: produce and consume alternate
// on the caller, with no goroutine, channel or context of their own.
func Ordered(ctx context.Context, n, workers int,
	produce func(ctx context.Context, i int) ([]byte, error),
	consume func(i int, b []byte) error) error {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			b, err := produce(ctx, i)
			if err != nil {
				return err
			}
			if err := consume(i, b); err != nil {
				return err
			}
		}
		return nil
	}

	type produced struct {
		idx  int
		data []byte
		ok   bool // in the ring: the slot holds a block
	}
	ahead := 2 * workers
	// At most ahead blocks are claimed and not yet consumed, so a send on done
	// never blocks and block i's slot in the ring is free: block i-ahead was
	// consumed before i could be claimed.
	tokens := make(chan struct{}, ahead)
	done := make(chan produced, ahead)
	// A new name, not ctx: reassigning ctx, which the workers capture, would
	// move it to the heap on the one-worker path too.
	pctx, cancel := context.WithCancelCause(ctx)
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case tokens <- struct{}{}:
				case <-pctx.Done():
					return
				}
				i := int(claimed.Add(1)) - 1
				if i >= n {
					return
				}
				b, err := produce(pctx, i)
				if err != nil {
					cancel(err)
					return
				}
				done <- produced{i, b, true}
			}
		}()
	}

	var err error
	ring := make([]produced, ahead)
	for next := 0; next < n && err == nil; {
		slot := &ring[next%ahead]
		if !slot.ok {
			select {
			case b := <-done:
				ring[b.idx%ahead] = b
			case <-pctx.Done():
				err = context.Cause(pctx)
			}
			continue
		}
		if pctx.Err() != nil {
			err = context.Cause(pctx) // a produce failed: nothing more is consumed
			break
		}
		b := slot.data
		*slot = produced{}
		if err = consume(next, b); err == nil {
			<-tokens
			next++
		}
	}
	cancel(err)
	wg.Wait()
	return err
}
