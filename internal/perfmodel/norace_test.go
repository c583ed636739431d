//go:build !race

package perfmodel

const raceDetector = false
