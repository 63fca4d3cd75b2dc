//go:build !race

package lib

// Twin is declared twice, once per build tag.
func Twin() bool { return false }
