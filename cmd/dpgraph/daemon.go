package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Test seams, nil outside tests: serveListening and routeListening
// receive a daemon's bound address once it accepts connections (the
// tests listen on port 0), and daemonDraining receives once a daemon
// has started draining, with its readiness already flipped.
var (
	serveListening, routeListening chan<- string
	daemonDraining                 chan<- struct{}
)

// runDaemon is the front door both dpgraph daemons share. It serves hs
// on addr until SIGINT/SIGTERM, announcing "banner on http://ADDR" once
// it accepts connections and sending the bound address on listening
// when that is non-nil. On the signal it drains: drain flips readiness
// and starts refusing new work with retryable 503s, the listener stays
// open for grace so probing load balancers observe the flip and stop
// sending, and then Shutdown waits for the requests in flight.
func runDaemon(out io.Writer, hs *http.Server, addr, banner string, listening chan<- string, grace time.Duration, drain func()) error {
	// Register the signal handler before announcing readiness so an
	// immediate SIGINT is never lost.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "dpgraph: %s on http://%s\n", banner, lis.Addr())
	if listening != nil {
		listening <- lis.Addr().String()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(lis) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second SIGINT kills hard
	fmt.Fprintln(out, "dpgraph: signal received, draining in-flight requests")
	drain()
	if daemonDraining != nil {
		daemonDraining <- struct{}{}
	}
	select {
	case <-time.After(grace):
	case err := <-errc:
		return err
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		hs.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintln(out, "dpgraph: shutdown complete")
	return nil
}
