//go:build !race

package supernet

const raceDetector = false
