package simt

// Stream is one host<->device copy queue with its own PCIe traffic
// counters, modeling a CUDA stream's view of the copy engine. A pipelined
// driver gives every in-flight batch sequence its own stream so concurrent
// transfers never race on shared byte counters, and per-batch transfer
// accounting stays exact regardless of how the batches interleave on the
// device.
//
// A Stream must be used by one goroutine at a time (exactly like a CUDA
// stream); distinct streams of one device may be used concurrently. The
// actual data motion is serialized against arena growth inside the device.
type Stream struct {
	dev      *Device
	bytesH2D int64
	bytesD2H int64
}

// NewStream creates an independent copy stream on the device.
func (d *Device) NewStream() *Stream { return &Stream{dev: d} }

// MemcpyHtoD copies host bytes to device memory, accounting the traffic on
// this stream only.
func (s *Stream) MemcpyHtoD(dst Ptr, src []byte) {
	s.dev.MemcpyHtoD(dst, src)
	s.bytesH2D += int64(len(src))
}

// MemcpyDtoH copies device bytes back to the host, accounting the traffic
// on this stream only.
func (s *Stream) MemcpyDtoH(dst []byte, src Ptr) {
	s.dev.MemcpyDtoH(dst, src)
	s.bytesD2H += int64(len(dst))
}

// Traffic returns and clears this stream's byte counters.
func (s *Stream) Traffic() (h2d, d2h int64) {
	h2d, d2h = s.bytesH2D, s.bytesD2H
	s.bytesH2D, s.bytesD2H = 0, 0
	return h2d, d2h
}
