package simt

// The warp intrinsics beyond the set the local-assembly kernels need:
// the shuffle variants and the butterfly maximum of the alignment kernel
// (gpualign), one of the "other modules" the paper's conclusion plans to
// offload.

// ShflUp shifts values down the lane order: lane i receives the value of
// lane i−delta (__shfl_up_sync). Lanes below delta keep their own value.
func (w *Warp) ShflUp(mask Mask, vals *Vec, delta int) Vec {
	w.ExecN(IShfl, mask, 1)
	var out Vec
	for lane := 0; lane < WarpSize; lane++ {
		if !mask.Has(lane) {
			continue
		}
		src := lane - delta
		if src >= 0 {
			out[lane] = vals[src]
		} else {
			out[lane] = vals[lane]
		}
	}
	return out
}

// ShflDown is the mirror of ShflUp: lane i receives lane i+delta's value
// (__shfl_down_sync).
func (w *Warp) ShflDown(mask Mask, vals *Vec, delta int) Vec {
	w.ExecN(IShfl, mask, 1)
	var out Vec
	for lane := 0; lane < WarpSize; lane++ {
		if !mask.Has(lane) {
			continue
		}
		src := lane + delta
		if src < WarpSize {
			out[lane] = vals[src]
		} else {
			out[lane] = vals[lane]
		}
	}
	return out
}

// ShflXor exchanges values between lanes whose indices differ by the XOR
// mask (__shfl_xor_sync), the butterfly primitive behind warp reductions.
func (w *Warp) ShflXor(mask Mask, vals *Vec, laneMask int) Vec {
	w.ExecN(IShfl, mask, 1)
	var out Vec
	for lane := 0; lane < WarpSize; lane++ {
		if mask.Has(lane) {
			out[lane] = vals[lane^laneMask]
		}
	}
	return out
}

// ReduceMax returns the warp-wide maximum of the active lanes' values. It
// executes (and costs) the 5-step shuffle/compare butterfly a CUDA warp
// reduction does.
func (w *Warp) ReduceMax(mask Mask, vals *Vec) uint64 {
	cur := *vals
	for lane := 0; lane < WarpSize; lane++ {
		if !mask.Has(lane) {
			cur[lane] = 0
		}
	}
	for delta := WarpSize / 2; delta > 0; delta /= 2 {
		other := w.ShflXor(FullMask, &cur, delta)
		w.Exec(IInt, FullMask)
		for lane := 0; lane < WarpSize; lane++ {
			cur[lane] = max(cur[lane], other[lane])
		}
	}
	return cur[0]
}
