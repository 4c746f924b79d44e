package iod

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"ndpcr/internal/blockpool"
	"ndpcr/internal/compress"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/ndp"
	"ndpcr/internal/node/nvm"
)

// TestRestoreOverIodAllocBudget bounds the bytes a restart from global I/O
// allocates per payload byte when the store is a real iod server behind a
// loopback client: the caller's one result buffer and small change. Every
// block-sized buffer on the way — the store's copy-out, the server's reply,
// the client's receive buffer, the decode destination — is drawn from
// blockpool and released by its last owner, so a warm restore allocates none
// of them; one that stops being released costs a payload's worth (2.0 raw
// and 3.0 through gzip when the receive buffer was handed to the application
// for good and the decode buffer made per block). A count, not a clock; GC
// is off while counting so the pool stays full.
func TestRestoreOverIodAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are not the program's")
	}
	gz, err := compress.Lookup("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	smooth := make([]byte, 8<<20) // 0.45 under gzip(1)
	for i := 0; i+8 <= len(smooth); i += 8 {
		binary.LittleEndian.PutUint64(smooth[i:], math.Float64bits(1000+100*math.Sin(float64(i)/5000))&^(1<<28-1))
	}
	for name, tc := range map[string]struct {
		codec   compress.Codec
		payload []byte
	}{
		"raw":  {nil, bytes.Repeat([]byte{0xa5}, 8<<20)},
		"gzip": {gz, smooth},
	} {
		t.Run(name, func(t *testing.T) {
			srv, err := NewServer(iostore.New(nvm.Pacer{}))
			if err != nil {
				t.Fatal(err)
			}
			addr, served := serve(t, srv)
			client, err := DialPool(addr, 4)
			if err != nil {
				t.Fatal(err)
			}
			n, err := node.New(node.Config{Job: "budget", Store: client, Codec: tc.codec, BlockSize: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				n.Close()
				client.Close()
				srv.Close()
				if err := <-served; err != nil {
					t.Errorf("Serve returned %v", err)
				}
			})
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			id, err := n.Commit(ctx, tc.payload, node.Metadata{Step: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := n.WaitDurableCtx(ctx, id, ndp.LevelStore); err != nil {
				t.Fatal(err)
			}
			n.FailLocal() // the restart case: only the store has it
			restore := func() {
				got, _, level, err := n.RestoreID(ctx, id)
				if err != nil || level != node.LevelIO || !bytes.Equal(got, tc.payload) {
					t.Fatalf("restore: level %v, err %v, match %v", level, err, bytes.Equal(got, tc.payload))
				}
			}
			restore() // warm: lanes dialled, pools filled, decoder tables built
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			perByte := math.Inf(1)
			for round := 0; round < 3; round++ { // the lowest: a pool one buffer short in one round is fuller in the next
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				restore()
				runtime.ReadMemStats(&after)
				perByte = min(perByte, float64(after.TotalAlloc-before.TotalAlloc)/float64(len(tc.payload)))
			}
			t.Logf("%.3f bytes allocated per payload byte restored", perByte)
			if perByte > 1.1 {
				t.Errorf("%.3f bytes allocated per payload byte restored, budget 1.1: a block buffer on the restore path is not going back to the pool", perByte)
			}
		})
	}
}

// TestPoolMetricsCannotBeStolen: the pool is the process's and so are its
// series. Two clients instrumented on one registry, a third on its own and
// the server's registry all report the same hit and miss counts, which move
// with traffic — where per-owner counters assigned at Instrument would have
// left the first client's registration reading zero for ever — and all carry
// the idle-bytes gauge.
func TestPoolMetricsCannotBeStolen(t *testing.T) {
	srv, first, _ := startServer(t)
	second, err := Dial(first.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	shared, own := metrics.NewRegistry(), metrics.NewRegistry()
	first.Instrument(shared)
	second.Instrument(shared)
	second.Instrument(own)

	ctx := context.Background()
	key := iostore.Key{Job: "m", Rank: 0, ID: 1}
	block := bytes.Repeat([]byte{9}, 64<<10)
	hit0, miss0 := blockpool.Stats()
	for i := 0; i < 4; i++ {
		if err := first.PutBlock(ctx, key, iostore.Object{}, i, block); err != nil {
			t.Fatal(err)
		}
		b, err := second.GetBlock(ctx, key, i)
		if err != nil || !bytes.Equal(b, block) {
			t.Fatalf("GetBlock(%d): %v", i, err)
		}
		blockpool.Put(b)
	}
	hit1, miss1 := blockpool.Stats()
	if hit1+miss1 < hit0+miss0+12 { // per block: server receive, store copy-out, client receive
		t.Errorf("12 block buffers moved, the pool counted %d Gets", hit1+miss1-hit0-miss0)
	}
	series := func(r *metrics.Registry) string {
		var buf bytes.Buffer
		if err := r.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "ndpcr_blockpool_idle_bytes ") {
				line = "ndpcr_blockpool_idle_bytes" // moves as the server releases reply buffers
			}
			if strings.HasPrefix(line, "ndpcr_blockpool_") || strings.HasPrefix(line, "# TYPE ndpcr_blockpool_") {
				out = append(out, line)
			}
		}
		return strings.Join(out, "\n")
	}
	want := fmt.Sprintf("# TYPE ndpcr_blockpool_hits_total counter\nndpcr_blockpool_hits_total %d\n"+
		"# TYPE ndpcr_blockpool_idle_bytes gauge\nndpcr_blockpool_idle_bytes\n"+
		"# TYPE ndpcr_blockpool_misses_total counter\nndpcr_blockpool_misses_total %d", hit1, miss1)
	for name, r := range map[string]*metrics.Registry{"shared": shared, "own": own, "server": srv.Metrics()} {
		if got := series(r); got != want {
			t.Errorf("%s registry:\n%s\nwant\n%s", name, got, want)
		}
	}
}
