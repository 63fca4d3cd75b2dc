//go:build !race

package consumer

// verifyElided is true only in race builds; see verify_race.go.
const verifyElided = false
