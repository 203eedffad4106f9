// Package mhm2sim is a pure-Go reproduction of "Accelerating Large Scale
// de novo Metagenome Assembly Using GPUs" (Awan et al., SC '21): the
// GPU-accelerated local-assembly module of MetaHipMer, implemented on a
// simulated SIMT device, together with every substrate the paper depends
// on — the assembler pipeline, a synthetic-community read generator, an
// instruction-roofline analyzer, and a Summit strong-scaling model.
//
// See README.md for the layout, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results:
// `go run ./cmd/figures` regenerates every evaluation figure, and with
// `-fig check` scores each of the paper's claims against them.
package mhm2sim
