package dist

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mhm2sim/internal/clock"
)

// uniformCosts gives every virtual shard the same unit cost and byte size.
func uniformCosts(shards int, unit clock.Machine) ([]clock.Machine, []int64) {
	cost := make([]clock.Machine, shards)
	bytes := make([]int64, shards)
	for s := range cost {
		cost[s] = unit
		bytes[s] = 1 << 10
	}
	return cost, bytes
}

func onesFactor(n int) []float64 {
	f := make([]float64, n)
	for r := range f {
		f[r] = 1
	}
	return f
}

// TestStealBalancedNoSteals: with uniform costs and no stragglers every
// queue drains at the same pace — nothing to steal, and the makespan
// equals the no-steal one exactly.
func TestStealBalancedNoSteals(t *testing.T) {
	deal := newShardDeal(DefaultVirtualShards, liveAll(8))
	cost, bytes := uniformCosts(DefaultVirtualShards, clock.Machine(time.Millisecond))
	out := stealSchedule(deal, cost, bytes, onesFactor(8), 8)
	if len(out.steals) != 0 {
		t.Errorf("balanced round produced %d steals", len(out.steals))
	}
	if out.makespan != out.noStealMakespan {
		t.Errorf("balanced makespan %v ≠ no-steal %v", out.makespan, out.noStealMakespan)
	}
	// 32 shards over 8 ranks = 4 per rank.
	if want := clock.Machine(4 * time.Millisecond); out.makespan != want {
		t.Errorf("makespan %v, want %v", out.makespan, want)
	}
}

// TestStealStragglerSpeedup pins the acceptance criterion's scheduling
// half: an 8× straggler at N=8 loses most of its queue to the seven idle
// ranks, and the stolen makespan beats the no-steal one by at least 1.5×.
func TestStealStragglerSpeedup(t *testing.T) {
	deal := newShardDeal(DefaultVirtualShards, liveAll(8))
	cost, bytes := uniformCosts(DefaultVirtualShards, clock.Machine(time.Millisecond))
	factor := onesFactor(8)
	factor[0] = 8
	out := stealSchedule(deal, cost, bytes, factor, 8)
	if len(out.steals) == 0 {
		t.Fatal("8× straggler produced no steals")
	}
	// No-steal: rank 0 serializes its 4 shards at 8 ms each = 32 ms.
	if want := clock.Machine(32 * time.Millisecond); out.noStealMakespan != want {
		t.Errorf("no-steal makespan %v, want %v", out.noStealMakespan, want)
	}
	if 2*out.noStealMakespan < 3*out.makespan {
		t.Errorf("steal speedup %.2fx below the 1.5x criterion (steal %v, no-steal %v)",
			float64(out.noStealMakespan)/float64(out.makespan), out.makespan, out.noStealMakespan)
	}
	for _, st := range out.steals {
		if st.victim != 0 {
			t.Errorf("steal of shard %d targeted rank %d, want the straggler 0", st.shard, st.victim)
		}
		if st.thief == 0 {
			t.Errorf("straggler stole shard %d from itself", st.shard)
		}
	}
}

// TestStealNeverWorse is the guard property: across seeded random costs,
// factors, and live sets, the no-steal makespan is the largest live rank's
// Σ of its dealt shards' scaled costs, the stolen makespan never exceeds
// it, and repeated runs are bit-identical (determinism).
func TestStealNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(7)
		live := make([]int, 0, n)
		for r := 0; r < n; r++ {
			if rng.Intn(4) > 0 || len(live) == 0 {
				live = append(live, r)
			}
		}
		deal := newShardDeal(DefaultVirtualShards, live)
		cost := make([]clock.Machine, DefaultVirtualShards)
		bytes := make([]int64, DefaultVirtualShards)
		for s := range cost {
			if rng.Intn(8) == 0 {
				continue // empty shard this round
			}
			cost[s] = clock.Machine(1+rng.Intn(2000)) * clock.Machine(time.Microsecond)
			bytes[s] = int64(rng.Intn(1 << 16))
		}
		factor := onesFactor(n)
		for r := range factor {
			if rng.Intn(3) == 0 {
				factor[r] = 1 + float64(rng.Intn(12))
			}
		}

		out := stealSchedule(deal, cost, bytes, factor, n)
		var noSteal clock.Machine
		for _, r := range live {
			var sum clock.Machine
			for s := range cost {
				if deal.rankOf(s) == r {
					sum += clock.Machine(float64(cost[s]) * factor[r])
				}
			}
			noSteal = max(noSteal, sum)
		}
		if out.noStealMakespan != noSteal {
			t.Fatalf("trial %d: no-steal makespan %v, want the largest rank's Σ scaled cost %v", trial, out.noStealMakespan, noSteal)
		}
		if out.makespan > out.noStealMakespan {
			t.Fatalf("trial %d: stolen makespan %v exceeds no-steal %v (live %v, factor %v)",
				trial, out.makespan, out.noStealMakespan, live, factor)
		}
		again := stealSchedule(deal, cost, bytes, factor, n)
		if out.makespan != again.makespan || !reflect.DeepEqual(out.steals, again.steals) ||
			!reflect.DeepEqual(out.busy, again.busy) {
			t.Fatalf("trial %d: steal schedule is not deterministic", trial)
		}
		// Every rank's busy time bounds the makespan, and no stolen shard
		// appears twice.
		seen := make(map[int]bool)
		for _, st := range out.steals {
			if seen[st.shard] {
				t.Fatalf("trial %d: shard %d stolen twice", trial, st.shard)
			}
			seen[st.shard] = true
		}
		for r, b := range out.busy {
			if b > out.makespan {
				t.Fatalf("trial %d: rank %d busy %v exceeds makespan %v", trial, r, b, out.makespan)
			}
		}
	}
}

// TestStealMatrix folds steals into the fabric exchange shape.
func TestStealMatrix(t *testing.T) {
	steals := []stealRec{
		{shard: 3, victim: 0, thief: 2, bytes: 100},
		{shard: 7, victim: 0, thief: 2, bytes: 50},
		{shard: 11, victim: 0, thief: 1, bytes: 25},
	}
	m := stealMatrix(steals, 3)
	if m[0][2] != 150 || m[0][1] != 25 {
		t.Errorf("matrix[0] = %v, want victim 0 → thief 2: 150, → thief 1: 25", m[0])
	}
	if m[1][0] != 0 && m[2][0] != 0 {
		t.Error("reverse flows populated")
	}
}

// BenchmarkStealScheduling measures one round's steal simulation at N=8
// with an 8× straggler — the per-round overhead stealing adds to the
// runtime's accounting path.
func BenchmarkStealScheduling(b *testing.B) {
	deal := newShardDeal(DefaultVirtualShards, liveAll(8))
	cost, bytes := uniformCosts(DefaultVirtualShards, clock.Machine(time.Millisecond))
	factor := onesFactor(8)
	factor[0] = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := stealSchedule(deal, cost, bytes, factor, 8)
		if len(out.steals) == 0 {
			b.Fatal("no steals")
		}
	}
}
