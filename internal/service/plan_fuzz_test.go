package service

import (
	"encoding/json"
	"runtime"
	"testing"
)

// FuzzJobSpecPlan: whatever JSON a client POSTs, decode → default →
// validate → translate either refuses it or yields a configuration that
// passes its own Validate — never a panic, and never more than
// planAllocCeiling bytes allocated, whatever counts the spec names.
func FuzzJobSpecPlan(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"engine":"dist","ranks":2,"elastic":"join@r0:2000000000"}`,
		`{"engine":"dist","ranks":2,"elastic":"join@r0:20000000"}`,
		`{"engine":"dist","ranks":4,"rounds":[21,33],"elastic":"join@r1:2,leave@r1:1","faults":"straggler=2,oom=1","fault_seed":7,"shard":"component","mem_budget":65536}`,
		`{"engine":"dist","ranks":2,"faults":"join=2000000000,drop=9223372036854775807"}`,
		`{"engine":"dist","ranks":2000000000}`,
		`{"engine":"multigpu","gpus":-4}`,
		`{"engine":"gpu","rounds":[55,33],"mem_budget":1}`,
		`{"engine":"dist","ranks":3,"host_ranks":true,"mem_budget":65536}`,
		`{"engine":"cpu","host_ranks":true}`,
		`{"engine":"dist","ranks":2,"nosteal":true}`,
		`{"rounds":[21,129]}`,
		`{"reads_path":"/nonexistent","preset":"nope","depth":-1}`,
	} {
		f.Add([]byte(seed))
	}
	const planAllocCeiling = 16 << 20
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > MaxSpecBytes {
			return
		}
		var spec JobSpec
		if json.Unmarshal(body, &spec) != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plan, err := spec.withDefaults().translate()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > planAllocCeiling {
			t.Fatalf("planning %s allocated %d bytes", body, got)
		}
		if err != nil {
			return
		}
		if err := plan.Pipeline.Validate(); err != nil {
			t.Fatalf("accepted %s, but its pipeline config is invalid: %v", body, err)
		}
		if plan.Dist != nil {
			if err := plan.Dist.Validate(); err != nil {
				t.Fatalf("accepted %s, but its dist config is invalid: %v", body, err)
			}
		}
		if (plan.Dist != nil) != (spec.Engine == "dist") {
			t.Fatalf("engine %q planned with Dist=%v", spec.Engine, plan.Dist != nil)
		}
		if plan.Dist == nil {
			return
		}
		if plan.Dist.CPUAssembly != spec.HostRanks {
			t.Fatalf("host_ranks=%v planned with CPUAssembly=%v", spec.HostRanks, plan.Dist.CPUAssembly)
		}
		// A dist job leases a device per rank unless its ranks run on the
		// host, and one more for budget counting.
		want := spec.Ranks
		if spec.HostRanks {
			want = 0
		}
		if spec.MemBudget > 0 {
			want++
		}
		if got := spec.DeviceDemand(); got != want {
			t.Fatalf("%s demands %d devices, want %d", body, got, want)
		}
	})
}
