// Package lifecycle provides the small shared pieces of server process
// management: a signal-bound context for orderly shutdown, so every ndpcr
// daemon (gateway, I/O node) traps SIGINT/SIGTERM the same way — stop
// accepting new work, drain what is in flight, flush metrics, exit 0.
package lifecycle

import (
	"context"
	"os"
	"os/signal"
	"syscall"
)

// SignalContext returns a context canceled on SIGINT or SIGTERM (the
// signals an operator or a supervisor sends to stop a daemon). A second
// signal while shutdown is draining kills the process immediately —
// operators keep a working Ctrl-C. The returned stop function releases
// the signal handler early.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-ch:
			cancel()
			// Second signal while draining: exit now. The process is
			// already on its way out when shutdown completes, so blocking
			// here forever otherwise is harmless.
			<-ch
			os.Exit(130)
		case <-ctx.Done():
			signal.Stop(ch)
		}
	}()
	stop := func() {
		signal.Stop(ch)
		cancel()
	}
	return ctx, stop
}
