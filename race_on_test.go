//go:build race

package kafkarel_test

// raceEnabled reports whether the race detector is compiled in. TSan
// instruments every memory access, which inflates the observability
// hot path far beyond its production cost, so timing-budget tests skip
// themselves under -race.
const raceEnabled = true
