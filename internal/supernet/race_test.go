//go:build race

package supernet

// raceDetector reports that the binary was built with -race. The detector
// makes sync.Pool drop items at random, so pooled objects (the kernel
// pool's WaitGroups) are re-allocated and heap-allocation counts are not
// meaningful; the matrix-plane count (tensor.MatrixAllocs) is unaffected.
const raceDetector = true
