//go:build race

package storage

// verifyShared makes every log hash each record it stores and recheck the
// hash on every copy-out, Scan and catch-up (Log.check): a record written
// after Append — which every replica holding it would see — panics naming
// the log and offset. It is on exactly when the race detector is: `go
// test -race ./...` then checks every record every test, campaign and
// fleet run stores, and ordinary builds compile the check away.
const verifyShared = true
