package simt

import "testing"

func runWarpTest(t *testing.T, kern func(w *Warp)) Stats {
	t.Helper()
	d := testDevice()
	res, err := d.Launch(KernelConfig{Name: "intrinsics", Warps: 1}, kern)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

func TestShflUpDown(t *testing.T) {
	runWarpTest(t, func(w *Warp) {
		var vals Vec
		for i := range vals {
			vals[i] = uint64(i * 10)
		}
		up := w.ShflUp(FullMask, &vals, 3)
		for lane := 0; lane < WarpSize; lane++ {
			want := uint64(lane * 10)
			if lane >= 3 {
				want = uint64((lane - 3) * 10)
			}
			if up[lane] != want {
				t.Errorf("ShflUp lane %d: %d, want %d", lane, up[lane], want)
			}
		}
		down := w.ShflDown(FullMask, &vals, 5)
		for lane := 0; lane < WarpSize; lane++ {
			want := uint64(lane * 10)
			if lane+5 < WarpSize {
				want = uint64((lane + 5) * 10)
			}
			if down[lane] != want {
				t.Errorf("ShflDown lane %d: %d, want %d", lane, down[lane], want)
			}
		}
	})
}

func TestShflXor(t *testing.T) {
	runWarpTest(t, func(w *Warp) {
		var vals Vec
		for i := range vals {
			vals[i] = uint64(i)
		}
		x := w.ShflXor(FullMask, &vals, 1)
		for lane := 0; lane < WarpSize; lane++ {
			if x[lane] != uint64(lane^1) {
				t.Errorf("ShflXor lane %d: %d", lane, x[lane])
			}
		}
	})
}

func TestReduceMax(t *testing.T) {
	runWarpTest(t, func(w *Warp) {
		var vals Vec
		for i := range vals {
			vals[i] = uint64(i * 3)
		}
		vals[17] = 9999
		if got := w.ReduceMax(FullMask, &vals); got != 9999 {
			t.Errorf("ReduceMax = %d", got)
		}
		// Mask out the max lane.
		if got := w.ReduceMax(FullMask&^LaneMask(17), &vals); got != 31*3 {
			t.Errorf("masked ReduceMax = %d, want %d", got, 31*3)
		}
	})
}

func TestIntrinsicsCountInstructions(t *testing.T) {
	stats := runWarpTest(t, func(w *Warp) {
		vals := Splat(2)
		w.ReduceMax(FullMask, &vals)
	})
	// 5 butterfly steps: 5 shuffles + 5 compares.
	if stats.WarpInstrs[IShfl] != 5 {
		t.Errorf("shuffle count %d, want 5", stats.WarpInstrs[IShfl])
	}
	if stats.WarpInstrs[IInt] != 5 {
		t.Errorf("int count %d, want 5", stats.WarpInstrs[IInt])
	}
}
