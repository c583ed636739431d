//go:build race

package perfmodel

// raceDetector reports that the binary was built with -race, whose
// instrumentation allocates on its own and so defeats allocation gates.
const raceDetector = true
