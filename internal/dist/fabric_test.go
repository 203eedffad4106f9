package dist

import (
	"testing"
	"time"

	"mhm2sim/internal/clock"
)

func testFabric(t *testing.T, n int, cfg FabricConfig) *Fabric {
	t.Helper()
	f, err := NewFabric(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFabricAlphaBetaModel(t *testing.T) {
	cfg := FabricConfig{
		LatencyPerMsg:  clock.Fabric(10 * time.Microsecond),
		BandwidthGBps:  1, // 1 GB/s: 1e9 bytes take 1 s
		AggBufferBytes: 1 << 20,
	}
	f := testFabric(t, 2, cfg)

	// Rank 0 sends 2.5 MiB to rank 1 → 3 aggregated messages.
	m := newMatrix(2)
	m[0][1] = 5 << 19
	st, err := f.Exchange("test", m)
	if err != nil {
		t.Fatal(err)
	}
	if st.Msgs[0] != 3 {
		t.Errorf("2.5 MiB in 1 MiB buffers = %d msgs, want 3", st.Msgs[0])
	}
	if st.Sent[0] != 5<<19 || st.Recv[1] != 5<<19 {
		t.Errorf("sent/recv accounting: %d/%d", st.Sent[0], st.Recv[1])
	}
	wantWire := clock.Fabric(float64(5<<19) / 1e9 * float64(time.Second))
	want := 3*cfg.LatencyPerMsg + wantWire
	if st.PerRank[0] != want {
		t.Errorf("rank 0 time %v, want %v", st.PerRank[0], want)
	}
	// Receiver pays the same (ejection mirrors injection here).
	if st.PerRank[1] != want {
		t.Errorf("rank 1 time %v, want %v", st.PerRank[1], want)
	}
	if st.Time != want {
		t.Errorf("exchange time %v, want slowest rank %v", st.Time, want)
	}
}

func TestFabricLocalTrafficIsFree(t *testing.T) {
	f := testFabric(t, 3, DefaultFabricConfig())
	m := newMatrix(3)
	m[1][1] = 1 << 30 // a GiB that never leaves the rank
	st, err := f.Exchange("local", m)
	if err != nil {
		t.Fatal(err)
	}
	if st.LocalBytes[1] != 1<<30 {
		t.Errorf("local bytes %d", st.LocalBytes[1])
	}
	if st.Time != 0 || st.TotalBytes() != 0 || st.TotalMsgs() != 0 {
		t.Errorf("rank-local traffic cost time=%v bytes=%d msgs=%d",
			st.Time, st.TotalBytes(), st.TotalMsgs())
	}
}

func TestFabricFullDuplexOverlap(t *testing.T) {
	// A symmetric pairwise swap should cost one direction's time, not two.
	cfg := FabricConfig{LatencyPerMsg: 0, BandwidthGBps: 1, AggBufferBytes: 1 << 20}
	f := testFabric(t, 2, cfg)
	m := newMatrix(2)
	m[0][1], m[1][0] = 1000, 1000
	st, err := f.Exchange("swap", m)
	if err != nil {
		t.Fatal(err)
	}
	oneWay := clock.Fabric(1000.0 / 1e9 * float64(time.Second))
	if st.PerRank[0] != oneWay || st.PerRank[1] != oneWay {
		t.Errorf("duplex swap per-rank %v/%v, want %v", st.PerRank[0], st.PerRank[1], oneWay)
	}
}

func TestFabricAccumulation(t *testing.T) {
	f := testFabric(t, 2, DefaultFabricConfig())
	m := newMatrix(2)
	m[0][1] = 100
	if _, err := f.Exchange("a", m); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exchange("b", m); err != nil {
		t.Fatal(err)
	}
	rep := Report{Stages: f.Stages()}
	if len(rep.Stages) != 2 {
		t.Errorf("stages %d, want 2", len(rep.Stages))
	}
	if got := rep.RemoteBytes(); got != 200 {
		t.Errorf("total bytes %d, want 200", got)
	}
	comm, sent, recv, msgs := f.RankTotals(0)
	if sent != 200 || recv != 0 || msgs != 2 || comm <= 0 {
		t.Errorf("rank 0 totals: comm=%v sent=%d recv=%d msgs=%d", comm, sent, recv, msgs)
	}
	if f.TotalTime() <= 0 {
		t.Error("total time not positive")
	}
}

func TestFabricValidation(t *testing.T) {
	if _, err := NewFabric(0, DefaultFabricConfig()); err == nil {
		t.Error("0 ranks accepted")
	}
	bad := DefaultFabricConfig()
	bad.BandwidthGBps = 0
	if _, err := NewFabric(2, bad); err == nil {
		t.Error("zero bandwidth accepted")
	}
	bad = DefaultFabricConfig()
	bad.LatencyPerMsg = clock.Fabric(-time.Second)
	if _, err := NewFabric(2, bad); err == nil {
		t.Error("negative latency accepted")
	}

	f := testFabric(t, 2, DefaultFabricConfig())
	if _, err := f.Exchange("short", newMatrix(3)); err == nil {
		t.Error("wrong-sized matrix accepted")
	}
	m := newMatrix(2)
	m[0][1] = -5
	if _, err := f.Exchange("neg", m); err == nil {
		t.Error("negative traffic accepted")
	}
}
