//go:build !race

package testbed

// verifyFinished is true only in race builds; see verify_race.go.
const verifyFinished = false
