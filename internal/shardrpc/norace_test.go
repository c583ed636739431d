//go:build !race

package shardrpc

const raceDetector = false
