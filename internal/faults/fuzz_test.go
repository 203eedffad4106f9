package faults

import "testing"

// Fault and elastic specs arrive from outside the program (a flag, a POSTed
// JobSpec). Every spec must give an error or a plan that validates for its
// run shape, without a panic, and a plan is bounded by MaxRanks whatever the
// spec says. Rank counts go a little past MaxRanks to reach the ceiling
// checks; round counts stay in a run's range (one per k, k ≤ kmer.MaxK).

// checkPlan fails unless p validates for ranks and is held to the ceilings.
func checkPlan(t *testing.T, p *Plan, ranks int) {
	t.Helper()
	if err := p.Validate(ranks); err != nil {
		t.Fatalf("accepted plan fails Validate: %v\n%s", err, p)
	}
	if c := p.Capacity(); c > MaxRanks {
		t.Fatalf("plan capacity %d exceeds %d", c, MaxRanks)
	}
	if len(p.Events) > int(numKinds)*MaxRanks {
		t.Fatalf("%d events exceed %d per kind", len(p.Events), MaxRanks)
	}
}

func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"rank-crash=1,straggler=2,drop=1,oom=1", // the bench chaos schedule
		"rank-crash=1,oom=2",
		"straggler=2",
		"join=3, corrupt=1 ,delay=2,kernel-abort=1",
		"",
		"oom",
		"drop=-1",
		"join=1024",
		"rank-crash=99999999999999999999",
	} {
		f.Add(spec, int64(42), uint16(8), uint8(2))
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64, ranks uint16, rounds uint8) {
		counts, err := ParseSpec(spec)
		if err == nil {
			for kind, n := range counts {
				if kind >= numKinds || n < 0 || n > MaxRanks {
					t.Fatalf("ParseSpec(%q) gave %d events of kind %d", spec, n, kind)
				}
			}
		}
		r := int(ranks) % (MaxRanks + 8)
		p, err := NewPlan(spec, seed, r, int(rounds))
		if err != nil {
			return
		}
		checkPlan(t, p, r)
	})
}

func FuzzParseElastic(f *testing.F) {
	for _, spec := range []string{
		"join@r1:2", // the bench and CI elastic schedule
		"join@r1:2,leave@r1:1",
		"leave@r0:3",
		"join@r0:1, leave@r1:2 ,join@r1:1",
		"",
		"join@1:2",
		"grow@r1:2",
		"join@r1:0",
		"join@r1:1023",
	} {
		f.Add(spec, uint16(4), uint8(2))
	}
	f.Fuzz(func(t *testing.T, spec string, ranks uint16, rounds uint8) {
		r := int(ranks) % (MaxRanks + 8)
		p, err := ParseElastic(spec, r, int(rounds))
		if err != nil {
			return
		}
		checkPlan(t, p, r)
	})
}
