package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"fase/internal/service"
)

// runServe implements `fase serve`: a long-running campaign server on
// ADDR. Scans are submitted as JSON over HTTP, queued under per-tenant
// quotas, sharded across the worker fleet, and archived into the
// run-history store — bit-identical to running the same (config, seed)
// through the CLI directly. SIGINT/SIGTERM shuts down gracefully:
// admission stops, queued jobs cancel, running jobs discard partial
// work, and the fleet drains.
func runServe(args []string) int {
	fs := flag.NewFlagSet("fase serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8631", "listen address")
	workers := fs.Int("workers", 0, "shard-rendering worker fleet size (0 = GOMAXPROCS)")
	maxActive := fs.Int("active", 0, "max concurrently executing jobs (0 = default 2)")
	queueCap := fs.Int("queue", 0, "queued-job capacity before 429 (0 = default 64)")
	tenantQuota := fs.Int("tenant-quota", 0, "per-tenant queued+running job quota (0 = default 8, negative = unlimited)")
	runsDir := fs.String("runs-dir", "runs", "run-history store directory for archived results")
	maxCaptures := fs.Int64("max-captures", 0, "per-job capture admission limit (0 = default 4096)")
	_ = fs.Parse(args)

	// The handler goes in before the server can accept a request, so a
	// signal that arrives as soon as the listener is up still drains.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s, err := service.New(service.Config{
		Workers: *workers, MaxActive: *maxActive,
		QueueCapacity: *queueCap, TenantQuota: *tenantQuota,
		StoreDir: *runsDir, MaxCapturesPerJob: *maxCaptures,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	bound, err := s.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("serve: listening on http://%s\n", bound)
	fmt.Printf("serve: POST http://%s/v1/scans to submit; GET /v1/stats for queue state\n", bound)

	<-sig
	fmt.Println("serve: shutting down")
	if err := s.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	st := s.Stats()
	fmt.Printf("serve: done — %d submitted, %d completed, %d cached, %d cancelled, %d failed\n",
		st.Submitted, st.Completed, st.Cached, st.Cancelled, st.Failed)
	return 0
}
