//go:build !race

package producer

// verifyRefused is true only in race builds; see verify_race.go.
const verifyRefused = false
