//go:build !race

package vitnet

const raceDetector = false
