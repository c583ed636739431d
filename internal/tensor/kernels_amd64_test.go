//go:build amd64 && !race

package tensor

import "testing"

// wantKernelBackend asks CPUID directly rather than reading useAVX2, so
// TestKernelBackendName catches a dispatch gate that disagrees with the
// CPU.
func wantKernelBackend() string {
	if cpuSupportsAVX2() {
		return "avx2"
	}
	return "scalar"
}

// TestKernelFallbackWithoutAVX2 reruns the kernel cross-check and the
// blocked-vs-naive matmul property tests with the assembly gated off, the
// state a CPU without AVX2 starts in: that host's code path must not go
// untested just because the test host has AVX2.
func TestKernelFallbackWithoutAVX2(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2: every other test already ran on the fallback path")
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()
	if got := KernelBackend(); got != "scalar" {
		t.Fatalf("kernel backend %q with AVX2 gated off, want scalar", got)
	}
	t.Run("MatchesReference", TestKernelBackendMatchesReference)
	t.Run("BlockedKernels", TestBlockedKernelsBitIdentical)
	t.Run("BlockedRangeSplits", TestBlockedRangeSplitsBitIdentical)
}
