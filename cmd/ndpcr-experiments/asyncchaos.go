package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"ndpcr/internal/compress"
	"ndpcr/internal/gateway"
	"ndpcr/internal/metrics"
)

// runAsyncChaos stresses the async-acknowledge contract under backend
// failure: an AsyncAck gateway over three live ndpcr-iod backends (R=2)
// acknowledges saves at NVM durability and drains them to the shard tier in
// the background; one backend is killed while acked checkpoints are still
// propagating. The invariant under test is zero silent losses — every
// acknowledged checkpoint must either reach store durability (and load back
// byte-identical) or be reported failed through the durability endpoint
// within the drain bound. An acked ID that is neither is a hole in the
// durability contract and fails the run.
func runAsyncChaos() error {
	const (
		backends  = 3
		killAfter = 3 // kill iod-1 right after this round's ack
	)
	rounds := 8
	if *flagQuick {
		rounds = 4
	}

	fmt.Printf("async-chaos: %d async-acked saves through %d iod backends (R=2), killing one mid-propagation\n\n",
		rounds, backends)

	// Live I/O nodes on loopback TCP, fronted by the shard tier.
	servers, addrs, err := startIODs(backends)
	if err != nil {
		return err
	}
	defer closeIODs(servers)
	store, err := dialTier(addrs)
	if err != nil {
		return err
	}
	defer store.Close()

	gz, _ := compress.Lookup("gzip", 1)
	reg := metrics.NewRegistry()
	gw, err := gateway.New(gateway.Config{
		Store: store,
		Tenants: []gateway.Tenant{
			{Name: "chaos", Token: "tok-chaos", DrainWeight: 2},
		},
		Codec:             gz,
		BlockSize:         1 << 14,
		DrainTimeout:      5 * time.Second,
		AsyncAck:          true,
		AsyncDrainTimeout: 30 * time.Second,
		DrainSlots:        2,
		Metrics:           reg,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: gw}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("  async-ack gateway serving on %s\n\n", base)

	payload := func(step int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("async-chaos step=%d ", step)), 2048)
	}

	c := gateway.NewClient(base, "tok-chaos")
	ctx := context.Background()
	var acked []uint64
	for step := 1; step <= rounds; step++ {
		var id uint64
		for {
			id, err = c.SaveAsync(ctx, "chaos", "run", 0, step, payload(step))
			var ae *gateway.APIError
			if errors.As(err, &ae) && ae.Code == "backpressure" {
				// The typed 429 means NVM admission is full of drain-locked
				// residents: back off and retry — backpressured work is
				// delayed, never lost.
				time.Sleep(100 * time.Millisecond)
				continue
			}
			if err != nil {
				return fmt.Errorf("async save step %d: %w", step, err)
			}
			break
		}
		acked = append(acked, id)
		fmt.Printf("  step %d: acked checkpoint %d at NVM durability\n", step, id)

		if step == killAfter {
			fmt.Printf("  >>> killing iod-1 (%s) with %d acked checkpoint(s) still propagating\n",
				addrs[1], len(acked))
			servers[1].Close()
		}
	}

	// The audit: poll every acked ID until it is store-durable or reported
	// failed. Neither within the bound = a silent loss.
	fmt.Println("\n  auditing acked checkpoints against the durability endpoint:")
	var durable, failed, silent int
	deadline := time.Now().Add(60 * time.Second)
	for i, id := range acked {
		step := i + 1
		var d gateway.Durability
		for {
			d, err = c.Durability(ctx, "chaos", "run", 0, id, "")
			if err != nil {
				return fmt.Errorf("durability of checkpoint %d: %w", id, err)
			}
			if d.Durable("store") || d.Failed {
				break
			}
			if time.Now().After(deadline) {
				silent++
				fmt.Printf("  SILENT LOSS: acked checkpoint %d neither store-durable nor reported failed\n", id)
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		switch {
		case d.Durable("store"):
			durable++
			got, err := c.Load(ctx, "chaos", "run", 0, id)
			if err != nil {
				return fmt.Errorf("store-durable checkpoint %d unreadable: %w", id, err)
			}
			if !bytes.Equal(got.Data, payload(step)) {
				return fmt.Errorf("store-durable checkpoint %d corrupted", id)
			}
			fmt.Printf("  checkpoint %d: store-durable, loads back byte-identical\n", id)
		case d.Failed:
			failed++
			fmt.Printf("  checkpoint %d: reported FAILED (%s) — loud, not lost\n", id, d.Failure)
		}
	}

	fmt.Printf("\n  acked: %d   store-durable: %d   reported failed: %d   silent losses: %d\n",
		len(acked), durable, failed, silent)

	// Orderly shutdown: the gateway must wait out any still-pending
	// background drains before closing the sessions.
	shutCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	hs.Shutdown(shutCtx)
	if err := gw.Shutdown(shutCtx); err != nil {
		fmt.Printf("  shutdown note: %v\n", err)
	}

	if silent != 0 {
		return fmt.Errorf("async-chaos: %d acked checkpoints vanished silently", silent)
	}
	if durable == 0 {
		return fmt.Errorf("async-chaos: no acked checkpoint reached store durability")
	}

	fmt.Println("\n--- gateway metrics ---")
	if err := reg.Dump(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nOK: every acked checkpoint reached the store or failed loudly — zero silent losses")
	return nil
}
