package gateway

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

// grabSlot acquires the scheduler's only slot so later acquirers must park.
func grabSlot(t *testing.T, s *drainScheduler) func() {
	t.Helper()
	release, err := s.Acquire(context.Background(), "holder", 1)
	if err != nil {
		t.Fatal(err)
	}
	return release
}

// enqueue parks one acquirer and reports its grant through the returned
// channel (the release func is delivered so the test can chain releases).
func enqueue(s *drainScheduler, tenant string, weight float64) chan func() {
	ch := make(chan func(), 1)
	go func() {
		release, err := s.Acquire(context.Background(), tenant, weight)
		if err != nil {
			close(ch)
			return
		}
		ch <- release
	}()
	return ch
}

// TestDrainSchedulerWeightedShare parks waiters from a weight-3 and a
// weight-1 tenant behind a single busy slot, then drains the queue one
// grant at a time: the grant sequence must deliver the 3:1 share.
func TestDrainSchedulerWeightedShare(t *testing.T) {
	s := newDrainScheduler(1)
	release := grabSlot(t, s)

	const each = 8
	type parked struct {
		tenant string
		ch     chan func()
	}
	var waiters []parked
	for i := 0; i < each; i++ {
		waiters = append(waiters, parked{"heavy", enqueue(s, "heavy", 3)})
		waitQueued(t, s, len(waiters))
		waiters = append(waiters, parked{"light", enqueue(s, "light", 1)})
		waitQueued(t, s, len(waiters))
	}

	counts := map[string]int{}
	// Release the held slot; then serve 8 grants and count who got them.
	next := release
	for served := 0; served < 8; served++ {
		next()
		granted := false
		for _, w := range waiters {
			select {
			case rel, ok := <-w.ch:
				if !ok {
					t.Fatal("waiter aborted")
				}
				counts[w.tenant]++
				next = rel
				granted = true
			default:
			}
			if granted {
				break
			}
		}
		if !granted {
			// The grant is delivered asynchronously; poll briefly.
			deadline := time.After(5 * time.Second)
			for !granted {
				select {
				case <-deadline:
					t.Fatalf("no grant after release %d (counts=%v)", served, counts)
				case <-time.After(time.Millisecond):
				}
				for _, w := range waiters {
					select {
					case rel, ok := <-w.ch:
						if !ok {
							t.Fatal("waiter aborted")
						}
						counts[w.tenant]++
						next = rel
						granted = true
					default:
					}
					if granted {
						break
					}
				}
			}
		}
	}
	// Stride scheduling with weights 3:1 must give the heavy tenant 6 of
	// the first 8 grants (pass advances 1/3 vs 1 per grant).
	if counts["heavy"] != 6 || counts["light"] != 2 {
		t.Fatalf("grant share heavy=%d light=%d, want 6/2", counts["heavy"], counts["light"])
	}
	next() // return the last slot; remaining waiters drain
}

func waitQueued(t *testing.T, s *drainScheduler, want int) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for s.Queued() != want {
		select {
		case <-deadline:
			t.Fatalf("queue depth %d never reached %d", s.Queued(), want)
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// TestDrainSchedulerNoStarvation: with extreme weight skew, the light
// tenant still gets served.
func TestDrainSchedulerNoStarvation(t *testing.T) {
	s := newDrainScheduler(1)
	release := grabSlot(t, s)

	lightCh := enqueue(s, "light", 0.001)
	waitQueued(t, s, 1)
	var heavy []chan func()
	for i := 0; i < 20; i++ {
		heavy = append(heavy, enqueue(s, "heavy", 1000))
		waitQueued(t, s, 2+i)
	}

	release()
	// Drain everything; the light waiter must be among the grants.
	served, lightServed := 0, false
	deadline := time.After(10 * time.Second)
	for served < 21 {
		progressed := false
		select {
		case rel, ok := <-lightCh:
			if ok {
				lightServed = true
				served++
				rel()
				progressed = true
			}
		default:
		}
		for i, ch := range heavy {
			if ch == nil {
				continue
			}
			select {
			case rel, ok := <-ch:
				if ok {
					served++
					heavy[i] = nil
					rel()
					progressed = true
				}
			default:
			}
		}
		if !progressed {
			select {
			case <-deadline:
				t.Fatalf("starvation: served %d of 21 (light=%v)", served, lightServed)
			case <-time.After(time.Millisecond):
			}
		}
	}
	if !lightServed {
		t.Fatal("light tenant starved")
	}
}

// TestDrainSchedulerAbandonedWaiterRemoved: a canceled Acquire leaves no
// queue entry behind, and does not consume a grant.
func TestDrainSchedulerAbandonedWaiterRemoved(t *testing.T) {
	s := newDrainScheduler(1)
	release := grabSlot(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := s.Acquire(ctx, "quitter", 1)
		errCh <- err
	}()
	waitQueued(t, s, 1)
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("canceled Acquire returned nil error")
	}
	waitQueued(t, s, 0)

	// The slot still cycles normally.
	granted := enqueue(s, "worker", 1)
	waitQueued(t, s, 1)
	release()
	select {
	case rel := <-granted:
		rel()
	case <-time.After(5 * time.Second):
		t.Fatal("grant after abandoned waiter never arrived")
	}
	if s.InUse() != 0 {
		t.Errorf("slots in use = %d after all releases", s.InUse())
	}
}

// TestDrainSchedulerConcurrentChurn hammers the scheduler with short-lived
// acquires under -race; every acquire must resolve and the slot accounting
// must return to zero.
func TestDrainSchedulerConcurrentChurn(t *testing.T) {
	s := newDrainScheduler(4)
	var wg sync.WaitGroup
	tenants := []string{"a", "b", "c"}
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			release, err := s.Acquire(ctx, tenants[i%3], float64(i%3+1))
			if err != nil {
				t.Errorf("acquire %d: %v", i, err)
				return
			}
			for j := 0; j < i%3; j++ { // hold the slot while others queue
				runtime.Gosched()
			}
			release()
		}(i)
	}
	wg.Wait()
	if s.InUse() != 0 || s.Queued() != 0 {
		t.Errorf("inUse=%d queued=%d after churn, want 0/0", s.InUse(), s.Queued())
	}
}
