//go:build race

package producer

// verifyRefused makes sendNow build and frame every attempt it refuses
// unbuilt and check the refusal (Producer.checkRefused), and check every
// accepted frame against the size it was admitted at. It is on exactly
// when the race detector is: `go test -race ./...` then verifies every
// send decision every producer test, campaign and fleet run makes, and
// ordinary builds compile the checks away.
const verifyRefused = true
