package coordinator

import (
	"kafkarel/internal/cluster"
	"kafkarel/internal/wire"
)

// logAppender is how the coordinators write. Every append they make
// in-sim — an offset commit, a transaction-state record, a control
// marker — is one record in a batch of its own, produced straight into
// the cluster, and the bytes stay in a log for the rest of the run. So
// the payload is encoded into one reused scratch buffer, and what is
// handed over — the stored payload and the one-record batch, whose
// header every replica's log references — is carved from a slab, a
// couple of allocations per few hundred appends.
type logAppender struct {
	clst *cluster.Cluster
	// seq numbers the batches so the brokers' per-producer sequence
	// tracking sees the coordinator as a well-behaved client: without it
	// every append after the first reads as a stuck-sequence duplicate
	// and poisons the duplicate-accounting invariants.
	seq uint64
	// scratch is where callers encode rec.Payload; append copies it out,
	// so the next encode may overwrite it.
	scratch []byte
	slab    wire.Slab
}

// append produces rec alone in req's batch under the next batch
// sequence. The copy it hands over, header and payload, is immutable
// from here on: the request is held across service and replication
// delays, and every replica's log ends up referencing that one record.
func (a *logAppender) append(req wire.ProduceRequest, rec wire.Record, done func(wire.ProduceResponse)) {
	a.seq++
	req.Batch.BaseSequence = a.seq
	req.Batch.Records = a.slab.Clone([]wire.Record{rec})
	a.clst.HandleProduce(req, done)
}
