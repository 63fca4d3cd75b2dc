package producer

import (
	"fmt"
	"time"

	"kafkarel/internal/wire"
)

// Semantics selects the delivery guarantee, the paper's feature (e).
type Semantics int

// Delivery semantics. AtMostOnce is fire-and-forget (acks=0, no
// retries); AtLeastOnce acknowledges and retries (acks=1); ExactlyOnce is
// the idempotent-producer extension (acks=all + broker-side batch
// de-duplication), which the paper lists as requiring "additional
// computing resources" (Sec. II).
const (
	AtMostOnce Semantics = iota + 1
	AtLeastOnce
	ExactlyOnce
)

// String implements fmt.Stringer.
func (s Semantics) String() string {
	switch s {
	case AtMostOnce:
		return "at-most-once"
	case AtLeastOnce:
		return "at-least-once"
	case ExactlyOnce:
		return "exactly-once"
	default:
		return fmt.Sprintf("semantics(%d)", int(s))
	}
}

// ParseSemantics returns the semantics whose String is name.
func ParseSemantics(name string) (Semantics, error) {
	for s := AtMostOnce; s <= ExactlyOnce; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown semantics %q", name)
}

// Partitioner selects how a multi-partition producer routes batches.
type Partitioner int

// Partitioner modes. PartitionRoundRobin (the zero value, the
// historical behaviour) spreads batches round-robin by batch sequence —
// Kafka's default partitioner for keyless records. PartitionKeyed
// hashes the batch's first record key (FNV-1a), Kafka's keyed routing:
// a key always lands on the same partition, and because the hash input
// is stable the batch stays pinned to one partition across retries
// (idempotent sequences are tracked per partition by the broker).
const (
	PartitionRoundRobin Partitioner = iota
	PartitionKeyed
)

// String implements fmt.Stringer.
func (p Partitioner) String() string {
	switch p {
	case PartitionRoundRobin:
		return "round-robin"
	case PartitionKeyed:
		return "keyed"
	default:
		return fmt.Sprintf("partitioner(%d)", int(p))
	}
}

// Config carries every producer parameter the paper's prediction model
// treats as a feature, plus the fixed plumbing parameters.
type Config struct {
	Topic string
	// Partitions, when above 1, spreads batches over the partitions
	// [0, Partitions) using the Partitioner mode; otherwise every batch
	// goes to partition 0. The testbed's reliability metrics are
	// partition-agnostic (the consumer reconciles the whole topic).
	Partitions int32
	// Partitioner is the routing mode for Partitions > 1 (default
	// round-robin, the historical behaviour).
	Partitioner Partitioner
	// KeyBase offsets this producer's record keys: records carry keys
	// Base+1, Base+2, ... so several producers can share one topic with
	// disjoint key ranges and the consumer can still reconcile exactly
	// (see consumer.ReconcileRangesKeys). Zero — keys 1..N — is the
	// single-producer default.
	KeyBase uint64

	// Semantics is feature (e).
	Semantics Semantics
	// BatchSize B, feature (f): records accumulated per produce request.
	BatchSize int
	// PollInterval δ, feature (g): the wait between source acquisitions.
	// Zero means full load — the producer acquires as fast as its I/O
	// path allows (Sec. IV-C).
	PollInterval time.Duration
	// MessageTimeout T_o, feature (h): the total budget from a record's
	// arrival at the producer until delivery, retries included.
	MessageTimeout time.Duration
	// MaxRetries τ_r bounds retry attempts under at-least-once.
	MaxRetries int
	// RetryBackoff is the pause before a retry attempt. With
	// RetryBackoffMax zero (the default) every retry waits exactly this
	// long, the historical fixed-backoff behaviour.
	RetryBackoff time.Duration
	// RetryBackoffMax, when positive, enables exponential backoff with
	// decorrelated jitter: each retry of a batch sleeps a uniformly-drawn
	// duration between RetryBackoff and three times the batch's previous
	// sleep, capped here (Kafka's retry.backoff.max.ms with jitter). The
	// draws come from the RNG installed via WithRetryRand, so runs remain
	// deterministic and reproducible from their seed.
	RetryBackoffMax time.Duration
	// RequestTimeout is the per-attempt acknowledgement wait. A response
	// arriving after this deadline triggers a retry even though the
	// original may still be delivered — the paper's Case 5 duplicate
	// mechanism.
	RequestTimeout time.Duration
	// MaxInFlight bounds concurrently outstanding produce requests.
	MaxInFlight int
	// QueueLimit bounds the accumulator (records). Under acknowledged
	// semantics the intake pauses at the limit (Kafka's bounded
	// buffer.memory blocking send()); under at-most-once there is no
	// feedback and the bound is ignored — the record queue grows and
	// MessageTimeout expiry is the only relief, which is exactly the
	// Figs. 5-6 loss mechanism.
	QueueLimit int
	// LingerTime caps how long a partial batch waits for more records
	// before being sent anyway.
	LingerTime time.Duration
	// ProducerID, when nonzero with ExactlyOnce, identifies this producer
	// for broker-side de-duplication.
	ProducerID uint64
	// ReconnectDelay is the pause before reopening a broken connection.
	ReconnectDelay time.Duration
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.Topic == "":
		return fmt.Errorf("producer: empty topic")
	case c.Semantics < AtMostOnce || c.Semantics > ExactlyOnce:
		return fmt.Errorf("producer: unknown semantics %d", c.Semantics)
	case c.BatchSize <= 0:
		return fmt.Errorf("producer: batch size %d <= 0", c.BatchSize)
	case c.PollInterval < 0:
		return fmt.Errorf("producer: negative poll interval")
	case c.MessageTimeout <= 0:
		return fmt.Errorf("producer: message timeout must be positive")
	case c.MaxRetries < 0:
		return fmt.Errorf("producer: negative max retries")
	case c.RetryBackoffMax > 0 && c.RetryBackoffMax < c.RetryBackoff:
		return fmt.Errorf("producer: retry backoff max %v below base %v", c.RetryBackoffMax, c.RetryBackoff)
	case c.RequestTimeout <= 0:
		return fmt.Errorf("producer: request timeout must be positive")
	case c.MaxInFlight <= 0:
		return fmt.Errorf("producer: max in flight %d <= 0", c.MaxInFlight)
	case c.QueueLimit <= 0:
		return fmt.Errorf("producer: queue limit %d <= 0", c.QueueLimit)
	case c.Partitions < 0:
		return fmt.Errorf("producer: negative partition count")
	case c.Partitioner < PartitionRoundRobin || c.Partitioner > PartitionKeyed:
		return fmt.Errorf("producer: unknown partitioner %d", c.Partitioner)
	case c.Semantics == ExactlyOnce && c.ProducerID == 0:
		return fmt.Errorf("producer: exactly-once requires a nonzero producer ID")
	case c.Semantics == ExactlyOnce && c.MaxInFlight > wire.SeqCacheSize:
		// Brokers remember the last wire.SeqCacheSize batches per
		// producer; beyond that a late retry can no longer be deduped
		// (Kafka caps idempotent pipelining at 5 for the same reason).
		return fmt.Errorf("producer: exactly-once max in flight %d exceeds the broker sequence cache (%d)",
			c.MaxInFlight, wire.SeqCacheSize)
	default:
		return nil
	}
}

// acksFor maps semantics to the wire-level acknowledgement mode.
func (c Config) effectiveRetries() int {
	if c.Semantics == AtMostOnce {
		return 0
	}
	return c.MaxRetries
}

// CostModel supplies the producer's per-record processing costs; the
// testbed provides a calibrated implementation. IOTime is the source
// acquisition cost per record (the "highest speed that I/O devices can
// handle" under full load); SerTime is the serialisation cost incurred by
// the send path. Implementations may jitter their samples; both are
// functions of the message size M.
type CostModel interface {
	IOTime(payloadBytes int) time.Duration
	SerTime(payloadBytes int) time.Duration
}
