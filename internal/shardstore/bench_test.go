package shardstore

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/units"
)

// pace is a real-time pacer: the benchmark models devices with actual
// bandwidth, so the simulated transfer duration is actually slept.
func pace(bw units.Bandwidth) nvm.Pacer {
	return nvm.Pacer{Bandwidth: bw, Sleep: func(d units.Seconds) { time.Sleep(d.Duration()) }}
}

// serialBackend models an I/O node with a fixed aggregate bandwidth: the
// paced transfer holds the device lock, so concurrent writers share one
// backend's bandwidth instead of each sleeping independently. Aggregate
// drain throughput then scales with the backend count, which is the claim
// BenchmarkShardDrain measures.
type serialBackend struct {
	iostore.Backend
	mu sync.Mutex
}

func (s *serialBackend) Put(ctx context.Context, o iostore.Object) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Backend.Put(ctx, o)
}

func (s *serialBackend) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Backend.PutBlock(ctx, key, meta, index, block)
}

func (s *serialBackend) Get(ctx context.Context, key iostore.Key) (iostore.Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Backend.Get(ctx, key)
}

// BenchmarkShardDrain drives concurrent object writes through shard sets
// of 1, 2, and 4 paced backends with R=2 (capped to 1 on the single
// backend). Bytes/s counts every replica copy landed, so the reported
// throughput tracks the aggregate bandwidth of the backend set and must
// grow monotonically from 1 to 4 backends.
func BenchmarkShardDrain(b *testing.B) {
	const payloadSize = 1 << 20
	payload := make([]byte, payloadSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("backends=%d", n), func(b *testing.B) {
			members := make([]Member, n)
			for i := range members {
				members[i] = Member{
					Name: fmt.Sprintf("iod-%d", i),
					Store: &serialBackend{
						Backend: iostore.New(pace(4 * units.GBps)),
					},
				}
			}
			s, err := New(members, Config{Replicas: 2, Probe: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			copies := s.cfg.Replicas
			b.SetBytes(int64(payloadSize * copies))
			var id atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					k := iostore.Key{Job: "bench", Rank: 0, ID: id.Add(1)}
					obj := iostore.Object{
						Key:      k,
						OrigSize: payloadSize,
						Blocks:   [][]byte{payload},
					}
					if err := s.Put(context.Background(), obj); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkShardDrainRebalance measures foreground drain throughput while
// the membership drain controller migrates a decommissioned backend's
// replicas off in the background: five paced backends, one decommissioned
// as the clock starts, with 64 preloaded objects for the mover to
// migrate. The datapoint guards the mover budget — background migration
// (bounded by MoverBudget, sharing the backends' paced bandwidth) must
// not collapse foreground writes below the steady-state 4-backend
// baseline; scripts/bench_shard.sh gates on roughly half that baseline.
func BenchmarkShardDrainRebalance(b *testing.B) {
	const payloadSize = 1 << 20
	payload := make([]byte, payloadSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	members := make([]Member, 5)
	for i := range members {
		members[i] = Member{
			Name: fmt.Sprintf("iod-%d", i),
			Store: &serialBackend{
				Backend: iostore.New(pace(4 * units.GBps)),
			},
		}
	}
	s, err := New(members, Config{Replicas: 2, Probe: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// Preload the tier so the leaver holds real replicas to migrate.
	for id := uint64(1); id <= 64; id++ {
		obj := iostore.Object{
			Key:      iostore.Key{Job: "bench", Rank: 0, ID: id},
			OrigSize: payloadSize,
			Blocks:   [][]byte{payload},
		}
		if err := s.Put(context.Background(), obj); err != nil {
			b.Fatal(err)
		}
	}
	copies := s.cfg.Replicas
	b.SetBytes(int64(payloadSize * copies))
	var id atomic.Uint64
	id.Store(1000)
	if err := s.Decommission("iod-0"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			k := iostore.Key{Job: "bench", Rank: 0, ID: id.Add(1)}
			obj := iostore.Object{
				Key:      k,
				OrigSize: payloadSize,
				Blocks:   [][]byte{payload},
			}
			if err := s.Put(context.Background(), obj); err != nil {
				b.Fatal(err)
			}
		}
	})
}
