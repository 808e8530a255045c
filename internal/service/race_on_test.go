//go:build race

package service

// raceDetector reports whether the tests were built with -race, whose
// instrumentation allocates where the plain build does not.
const raceDetector = true
