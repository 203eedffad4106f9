package service

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"mhm2sim/internal/simt"
)

// TestDevicePoolTryAcquire pins the non-blocking lease path elastic joins
// use: immediate grants when devices are free, nil (never a wait) when the
// pool is exhausted, oversized, or has FIFO waiters queued ahead.
func TestDevicePoolTryAcquire(t *testing.T) {
	p := NewDevicePool(2, simt.DeviceConfig{})

	if l := p.TryAcquire(0); l == nil || len(l.Devices) != 0 {
		t.Fatal("zero-device TryAcquire should return an empty lease")
	}
	if l := p.TryAcquire(3); l != nil {
		t.Fatal("TryAcquire beyond pool size should refuse")
	}
	l1 := p.TryAcquire(1)
	if l1 == nil || len(l1.Devices) != 1 {
		t.Fatal("TryAcquire(1) with 2 free refused")
	}
	l2 := p.TryAcquire(2)
	if l2 != nil {
		t.Fatal("TryAcquire(2) with 1 free should refuse, not block")
	}
	l1.Release()
	if l := p.TryAcquire(2); l == nil {
		t.Fatal("TryAcquire(2) after release refused")
	} else {
		l.Release()
	}
	if st := p.Stats(); st.Leased != 0 {
		t.Fatalf("%d devices still leased after releases", st.Leased)
	}
}

// TestDevicePoolTryAcquireYieldsToWaiters: a blocked Acquire at the head
// of the FIFO queue must not be overtaken by an elastic join's TryAcquire,
// even when enough devices are free for the join.
func TestDevicePoolTryAcquireYieldsToWaiters(t *testing.T) {
	p := NewDevicePool(2, simt.DeviceConfig{})
	hold := p.TryAcquire(1)
	if hold == nil {
		t.Fatal("setup lease refused")
	}
	// Queue a waiter needing both devices; it cannot be granted yet.
	granted := make(chan *Lease)
	go func() {
		l, err := p.Acquire(context.Background(), 2)
		if err != nil {
			t.Error(err)
		}
		granted <- l
	}()
	// Wait for the waiter to be queued.
	for i := 0; ; i++ {
		p.mu.Lock()
		n := len(p.waiters)
		p.mu.Unlock()
		if n == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if l := p.TryAcquire(1); l != nil {
		t.Fatal("TryAcquire overtook a queued FIFO waiter")
	}
	hold.Release()
	(<-granted).Release()
}

// TestSchedulerElasticJob runs an elastic dist job end to end through the
// daemon: the joining rank draws a device from the shared pool, the
// persisted output matches the standalone run byte for byte, the JSON
// report carries the elasticity section, every pool device returns at job
// end, and the metrics counters accumulate.
func TestSchedulerElasticJob(t *testing.T) {
	spec := tinySpec(5)
	spec.Engine, spec.Ranks = "dist", 2
	spec.Elastic = "join@r0:1"

	s := newScheduler(t, Config{DataDir: t.TempDir(), Workers: 1, QueueDepth: 4, Devices: 4})
	s.Start()
	rep := runJob(t, s, spec) // FASTA and report equal the standalone run's
	if rep.Dist == nil || rep.Dist.Elasticity == nil {
		t.Fatal("persisted report is missing the elasticity section")
	}
	es := rep.Dist.Elasticity
	if es.Joins != 1 || es.Epochs < 2 {
		t.Fatalf("elasticity section: joins=%d epochs=%d, want 1 join and ≥ 2 epochs", es.Joins, es.Epochs)
	}
	if rep.Dist.Capacity != 3 {
		t.Fatalf("capacity = %d, want 3 (2 initial + 1 join)", rep.Dist.Capacity)
	}
	joined := 0
	for _, r := range rep.Dist.PerRank {
		if r.JoinedRound >= 0 {
			joined++
		}
	}
	if joined != 1 {
		t.Fatalf("%d per-rank rows carry a join round, want 1", joined)
	}

	var mbuf bytes.Buffer
	s.RenderMetrics(&mbuf)
	if !strings.Contains(mbuf.String(), "mhm2d_elastic_joins_total 1") {
		t.Fatalf("metrics missing elastic join counter in:\n%s", mbuf.String())
	}
}
