package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mhm2sim/internal/simt"
)

// DevicePool is the daemon's shared set of simulated GPUs, leased to jobs
// for the duration of their run. Grants are all-or-nothing and FIFO: a job
// needing k devices waits until k are free AND it is at the head of the
// wait queue. All-or-nothing prevents the classic fragment deadlock (two
// jobs each holding half of their demand, each waiting for the other's
// half); FIFO prevents small jobs from starving large ones.
type DevicePool struct {
	mu      sync.Mutex
	free    []*simt.Device
	waiters []*poolWaiter // FIFO
	size    int

	// Accounting for /metrics.
	leases    int64
	busyNS    int64 // Σ lease hold time
	waitNS    int64 // Σ time jobs spent waiting for a grant
	leasedNow int
}

type poolWaiter struct {
	n  int
	ch chan []*simt.Device // buffered(1); receives the grant
}

// NewDevicePool builds n devices from cfg (zero Name = simt.V100()).
func NewDevicePool(n int, cfg simt.DeviceConfig) *DevicePool {
	if cfg.Name == "" {
		cfg = simt.V100()
	}
	p := &DevicePool{size: n}
	for i := 0; i < n; i++ {
		p.free = append(p.free, simt.NewDevice(cfg))
	}
	return p
}

// Size returns the pool's device count.
func (p *DevicePool) Size() int { return p.size }

// Close closes the free devices (one that ever launched keeps its warp pool
// parked until then); the scheduler calls it once every lease is back.
func (p *DevicePool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, dev := range p.free {
		dev.Close()
	}
}

// Lease is a granted set of devices, the ones its job computes on whatever
// the engine (DESIGN.md §13). Release returns them to the pool exactly once.
type Lease struct {
	Devices []*simt.Device
	pool    *DevicePool
	t0      time.Time
	once    sync.Once
}

// Acquire leases n devices, blocking until they are granted or ctx is
// done. n == 0 returns an empty lease immediately (CPU jobs). n beyond the
// pool size can never be satisfied and errors immediately.
func (p *DevicePool) Acquire(ctx context.Context, n int) (*Lease, error) {
	if n == 0 {
		return &Lease{pool: p, t0: time.Now()}, nil
	}
	if n > p.size {
		return nil, fmt.Errorf("service: job needs %d devices, pool has %d", n, p.size)
	}
	t0 := time.Now()
	p.mu.Lock()
	if len(p.waiters) == 0 && len(p.free) >= n {
		devs := p.take(n)
		p.granted(t0)
		p.mu.Unlock()
		return &Lease{Devices: devs, pool: p, t0: time.Now()}, nil
	}
	w := &poolWaiter{n: n, ch: make(chan []*simt.Device, 1)}
	p.waiters = append(p.waiters, w)
	p.mu.Unlock()

	select {
	case devs := <-w.ch:
		p.mu.Lock()
		p.granted(t0)
		p.mu.Unlock()
		return &Lease{Devices: devs, pool: p, t0: time.Now()}, nil
	case <-ctx.Done():
		p.mu.Lock()
		for i, q := range p.waiters {
			if q == w {
				p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
				p.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		p.mu.Unlock()
		// The grant raced the cancellation: the devices are already ours,
		// hand them straight back.
		devs := <-w.ch
		p.release(devs, time.Now())
		return nil, ctx.Err()
	}
}

// TryAcquire leases n devices without blocking: nil (no error) when the
// pool cannot grant immediately — fewer than n free, or FIFO waiters queued
// ahead (an elastic join must not jump jobs blocked in Acquire). An elastic
// dist job's mid-run rank joins use this: a join that cannot get a device
// is a hard job error, never a silent wait that would deadlock the round
// barrier against the very jobs holding the devices.
func (p *DevicePool) TryAcquire(n int) *Lease {
	if n == 0 {
		return &Lease{pool: p, t0: time.Now()}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > p.size || len(p.waiters) > 0 || len(p.free) < n {
		return nil
	}
	devs := p.take(n)
	p.granted(time.Now())
	return &Lease{Devices: devs, pool: p, t0: time.Now()}
}

// take removes n devices from the free list (caller holds mu).
func (p *DevicePool) take(n int) []*simt.Device {
	devs := p.free[len(p.free)-n:]
	p.free = p.free[:len(p.free)-n]
	p.leasedNow += n
	return append([]*simt.Device(nil), devs...)
}

// granted records a successful acquisition (caller holds mu).
func (p *DevicePool) granted(t0 time.Time) {
	p.leases++
	p.waitNS += int64(time.Since(t0))
}

// Release returns the lease's devices to the pool and wakes eligible
// waiters. Safe to call more than once; only the first call releases.
func (l *Lease) Release() {
	l.once.Do(func() {
		if len(l.Devices) > 0 {
			l.replaceLost()
			l.pool.release(l.Devices, l.t0)
		}
	})
}

// replaceLost swaps each device a fault schedule took (simt.Device.InjectFault)
// for a fresh one, so whatever runs on these devices next — the job's retry,
// or another job once they are released — meets no state from this run.
func (l *Lease) replaceLost() {
	for i, dev := range l.Devices {
		if dev.Lost() {
			dev.Close()
			l.Devices[i] = simt.NewDevice(dev.Cfg)
		}
	}
}

// source is the device source of one run on the lease (EngineSpec.Devices):
// the leased devices in order and then, for ranks that join mid-run, pool
// capacity, which releaseGrown returns. TryAcquire never blocks: a pool too
// contended to grow the job is a hard error, not a deadlocked round.
func (l *Lease) source() (draw func() (*simt.Device, error), releaseGrown func()) {
	next := 0
	var grown []*Lease
	draw = func() (*simt.Device, error) {
		if next < len(l.Devices) {
			next++
			return l.Devices[next-1], nil
		}
		g := l.pool.TryAcquire(1)
		if g == nil {
			return nil, fmt.Errorf("service: device pool exhausted (size %d)", l.pool.Size())
		}
		grown = append(grown, g)
		return g.Devices[0], nil
	}
	return draw, func() {
		for _, g := range grown {
			g.Release()
		}
	}
}

func (p *DevicePool) release(devs []*simt.Device, t0 time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, devs...)
	p.leasedNow -= len(devs)
	p.busyNS += int64(time.Since(t0)) * int64(len(devs))
	// Grant strictly in FIFO order: stop at the first waiter that does not
	// fit, even if a later (smaller) one would — that ordering is the
	// no-starvation guarantee.
	for len(p.waiters) > 0 && len(p.free) >= p.waiters[0].n {
		w := p.waiters[0]
		p.waiters = p.waiters[1:]
		w.ch <- p.take(w.n)
	}
}

// PoolStats is the pool's accounting snapshot for /metrics.
type PoolStats struct {
	Size   int
	Leased int
	Leases int64
	BusyNS int64 // device·ns held across all leases
	WaitNS int64 // ns jobs spent waiting for grants
}

// Stats snapshots the pool accounting.
func (p *DevicePool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Size: p.size, Leased: p.leasedNow, Leases: p.leases, BusyNS: p.busyNS, WaitNS: p.waitNS}
}
