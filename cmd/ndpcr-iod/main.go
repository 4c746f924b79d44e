// Command ndpcr-iod runs a global I/O node: a TCP service exposing the
// checkpoint store to compute-node runtimes. Point ndpcr-gateway (or any
// program using the node runtime) at it with -iod <addr> and every drained
// block will traverse a real TCP connection, per §4.2.2's requirement that
// the NDP run the network stack.
//
//	ndpcr-iod -listen :9400 [-bw 100]
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"

	"ndpcr/internal/iod"
	"ndpcr/internal/lifecycle"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
	"ndpcr/internal/units"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:9400", "address to listen on")
		metricsAddr = flag.String("metrics-listen", "", "serve Prometheus metrics over HTTP on this address (\"\" = disabled)")
		bwMBps      = flag.Float64("bw", 0, "simulated per-node I/O bandwidth in MB/s (0 = unthrottled); "+
			"the paper's projected share is 100")
		maxConns = flag.Int("max-conns", 0, "maximum concurrent client connections/lanes (0 = unlimited); "+
			"surplus dials are refused and counted in ndpcr_iod_conns_rejected_total")
	)
	flag.Parse()

	var pacer nvm.Pacer
	if *bwMBps > 0 {
		pacer = nvm.Pacer{
			Bandwidth: units.Bandwidth(*bwMBps) * units.MBps,
			Sleep:     func(d units.Seconds) { timeSleep(d) },
		}
	}
	srv, err := iod.NewServer(iostore.New(pacer))
	if err != nil {
		fatal(err)
	}
	if *maxConns > 0 {
		srv.SetMaxConns(*maxConns)
	}

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(*listen) }()

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler(srv.Metrics()))
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "ndpcr-iod: metrics endpoint: %v\n", err)
			}
		}()
		fmt.Printf("ndpcr-iod: Prometheus metrics on http://%s/metrics\n", *metricsAddr)
	}

	ctx, stop := lifecycle.SignalContext(context.Background())
	defer stop()
	fmt.Printf("ndpcr-iod: serving checkpoint store on %s", *listen)
	if *bwMBps > 0 {
		fmt.Printf(" (paced at %.0f MB/s per transfer)", *bwMBps)
	}
	fmt.Println()

	select {
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	case <-ctx.Done():
		// SIGINT or SIGTERM: stop accepting, drain in-flight exchanges
		// (Close waits for every connection handler), flush metrics.
		fmt.Println("\nndpcr-iod: shutting down")
		srv.Close()
		<-done
		fmt.Println("ndpcr-iod: final metrics:")
		srv.Metrics().Dump(os.Stdout)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ndpcr-iod: %v\n", err)
	os.Exit(1)
}
