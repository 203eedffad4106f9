package simt

import (
	"errors"
	"testing"
)

// TestInjectFault: after InjectFault every Launch fails with the injected
// error (ErrDeviceLost by default), memory operations keep working (the
// host can still drain results).
func TestInjectFault(t *testing.T) {
	d := NewDevice(V100())
	ran := false
	kern := func(w *Warp) { ran = true }

	if _, err := d.Launch(KernelConfig{Name: "ok", Warps: 1, Sequential: true}, kern); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("kernel did not run before fault")
	}

	d.InjectFault(nil)
	ran = false
	_, err := d.Launch(KernelConfig{Name: "dead", Warps: 1, Sequential: true}, kern)
	if !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("faulted launch returned %v, want ErrDeviceLost", err)
	}
	if ran {
		t.Error("kernel ran on a faulted device")
	}
	// Second launch still fails: the fault is sticky.
	if _, err := d.Launch(KernelConfig{Name: "dead2", Warps: 1, Sequential: true}, kern); !errors.Is(err, ErrDeviceLost) {
		t.Errorf("fault was not sticky: %v", err)
	}

	// Memory traffic still works on a faulted device.
	p, err := d.Malloc(64)
	if err != nil {
		t.Fatalf("malloc on faulted device: %v", err)
	}
	d.MemcpyHtoD(p, []byte{1, 2, 3})

	// A custom error is passed through verbatim.
	custom := errors.New("thermal shutdown")
	d.InjectFault(custom)
	if _, err := d.Launch(KernelConfig{Name: "custom", Warps: 1, Sequential: true}, kern); !errors.Is(err, custom) {
		t.Errorf("custom fault not surfaced: %v", err)
	}
}
