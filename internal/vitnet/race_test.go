//go:build race

package vitnet

// raceDetector reports that the binary was built with -race, whose
// instrumentation allocates on its own and so defeats the bytes gate.
const raceDetector = true
