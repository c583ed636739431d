//go:build !race

package space

const raceDetector = false
