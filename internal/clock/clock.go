// Package clock types the modeled clocks a duration can be on; a host clock
// stays a time.Duration. Two clocks add only through an explicit conversion,
// at a site DESIGN.md §4 lists, and the exact ledger (internal/figures) takes
// a number's clock from its type.
package clock

import (
	"reflect"
	"time"
)

// The modeled clocks, in nanoseconds but for Cluster. Device is V100 time
// (internal/simt): kernels, launch overhead and PCIe copies. CPUModel is
// host-core time under locassm.CPUCost. Fabric is internal/dist's α/β
// interconnect time. Machine is a simulated rank's or run's wall: compute on
// its device or CPU model, plus fabric. Cluster is internal/cluster's
// extrapolated seconds.
type (
	Device   int64
	CPUModel int64
	Fabric   int64
	Machine  int64
	Cluster  float64
)

// Labels names each clock type in the exact ledger's clock column.
var Labels = map[reflect.Type]string{
	reflect.TypeFor[Device]():   "device-model",
	reflect.TypeFor[CPUModel](): "cpu-model",
	reflect.TypeFor[Fabric]():   "fabric-model",
	reflect.TypeFor[Machine]():  "machine-model",
	reflect.TypeFor[Cluster]():  "cluster-model",
}

// Seconds, String and Round read as time.Duration's.
func (d Device) Seconds() float64               { return time.Duration(d).Seconds() }
func (d Device) String() string                 { return time.Duration(d).String() }
func (d Device) Round(m time.Duration) Device   { return Device(time.Duration(d).Round(m)) }
func (d Fabric) Seconds() float64               { return time.Duration(d).Seconds() }
func (d Fabric) String() string                 { return time.Duration(d).String() }
func (d Fabric) Round(m time.Duration) Fabric   { return Fabric(time.Duration(d).Round(m)) }
func (d Machine) Seconds() float64              { return time.Duration(d).Seconds() }
func (d Machine) String() string                { return time.Duration(d).String() }
func (d Machine) Round(m time.Duration) Machine { return Machine(time.Duration(d).Round(m)) }
