//go:build race

package consumer

// verifyElided makes pollOnce issue every fetch it elides and check the
// answer (Member.checkElided). It is on exactly when the race detector
// is: `go test -race ./...` then verifies every elision every group test,
// campaign and fleet run performs, and ordinary builds compile the check
// away.
const verifyElided = true
