// Command mhm2d is the assembly-as-a-service daemon: it schedules many
// concurrent assembly jobs (submitted over an HTTP+JSON API) onto a worker
// pool sharing a set of simulated GPUs, with per-job checkpointing so a
// restarted daemon resumes unfinished jobs from their last completed
// round. See internal/service for the scheduler and DESIGN.md §13 for the
// architecture.
//
// Quickstart:
//
//	mhm2d -addr :8080 -data /var/lib/mhm2d &
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"preset":"arcticsynth","genomes":2,"engine":"gpu"}'
//	curl -s localhost:8080/v1/jobs/job-000000
//	curl -s localhost:8080/v1/jobs/job-000000/result
//	curl -s localhost:8080/v1/jobs/job-000000/contigs
//
// Elastic dist jobs ({"engine":"dist","ranks":4,"elastic":"join@r1:2"})
// grow their rank set mid-run: each joining rank draws a device from the
// shared pool without blocking (a pool too contended to grow the job fails
// it rather than deadlocking the round), and every leased device returns
// to the pool when the job finishes. The /metrics endpoint exports the
// accumulated join and work-stealing counters.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mhm2sim/internal/service"
)

// How long a client may take to send its request, and an idle keep-alive
// connection may stay open. Responses carry no deadline: a contigs download
// is as long as the assembly is large.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		dataDir     = flag.String("data", "", "persistence root (specs, checkpoints, results); required")
		workers     = flag.Int("workers", 4, "concurrently executing jobs")
		queueDepth  = flag.Int("queue", 64, "bounded queue depth; submissions beyond it get 429")
		devices     = flag.Int("devices", 4, "shared simulated-GPU pool size")
		tenantQuota = flag.Int("tenant-quota", 0, "max active (queued+running) jobs per tenant; 0 = unlimited")
		retries     = flag.Int("retries", 1, "job-level retries on unrecoverable injected faults")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "max wait for running jobs to reach a stage boundary on shutdown")
	)
	flag.Parse()
	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "mhm2d: -data is required")
		flag.Usage()
		os.Exit(2)
	}

	sched, err := service.New(service.Config{
		DataDir:         *dataDir,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		TenantMaxActive: *tenantQuota,
		Devices:         *devices,
		JobRetries:      *retries,
	})
	if err != nil {
		log.Fatalf("mhm2d: %v", err)
	}
	if n := sched.Resumable(); n > 0 {
		log.Printf("mhm2d: resuming %d unfinished job(s) from %s", n, *dataDir)
	}
	sched.Start()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           service.NewHandler(sched),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("mhm2d: serving on %s (workers=%d devices=%d queue=%d)", *addr, *workers, *devices, *queueDepth)

	select {
	case <-ctx.Done():
		log.Printf("mhm2d: signal received; draining (checkpointed jobs resume on restart)")
	case err := <-errCh:
		log.Fatalf("mhm2d: serve: %v", err)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("mhm2d: http shutdown: %v", err)
	}
	if err := sched.Shutdown(shutCtx); err != nil {
		log.Printf("mhm2d: scheduler shutdown: %v", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("mhm2d: serve: %v", err)
	}
	log.Printf("mhm2d: stopped")
}
