// Package tune models the host CPU in the hwsim roofline terms the search
// stack already uses for accelerators, so a measured kernel throughput can
// be read as a fraction of the host's roofline the same way hwsim judges
// a candidate on a TPU.
package tune

import (
	"h2onas/internal/hwsim"
)

// HostChip models one core of the CI host CPU in hwsim.Chip terms, so the
// roofline helpers apply unchanged: PeakMXUFLOPS is the scalar FP64
// multiply-add peak (2 FLOPs/cycle — the reference kernels are scalar and
// the accumulation chains serialize FMA-width tricks away), HBMBandwidth
// is the per-core DRAM streaming bandwidth, and CMEM stands in for L2.
// The numbers are the Intel Xeon (Skylake-SP, 2.10 GHz) reference host
// that benchmark/reference.json is stamped with.
func HostChip() hwsim.Chip {
	return hwsim.Chip{
		Name:          "xeon-2.1GHz-core",
		PeakMXUFLOPS:  4.2e9,  // 2.1 GHz × 2 scalar FP64 FLOPs/cycle
		PeakVPUFLOPS:  16.8e9, // 4-lane AVX2 (kernels_amd64.s)
		HBMBandwidth:  12e9,   // single-core DRAM stream
		HBMCapacity:   16 << 30,
		CMEMCapacity:  2 << 20, // per-core L2
		CMEMBandwidth: 80e9,
	}
}
