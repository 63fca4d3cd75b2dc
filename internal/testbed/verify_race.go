//go:build race

package testbed

// verifyFinished makes rig.allDone walk every producer as well as read
// the completion count, and panic if the two disagree. It is on exactly
// when the race detector is: `go test -race ./...` then checks the count
// on every drain check every group test, campaign and fleet run makes,
// and ordinary builds compile the walk away.
const verifyFinished = true
