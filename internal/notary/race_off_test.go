//go:build !race

package notary

const raceDetector = false
