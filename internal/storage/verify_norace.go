//go:build !race

package storage

// verifyShared is true only in race builds; see verify_race.go.
const verifyShared = false
