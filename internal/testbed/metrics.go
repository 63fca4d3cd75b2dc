package testbed

import (
	"fmt"
	"strings"
	"time"

	"kafkarel/internal/obs"
	"kafkarel/internal/producer"
	"kafkarel/internal/wire"
)

// MetricsSnapshot is the per-run observability summary returned next to
// {P_l, P_d}. It is a comparable struct of fixed-size scalars and
// arrays so determinism tests can require byte equality across worker
// counts, and Merge can fold a fleet's shards deterministically.
type MetricsSnapshot struct {
	// DES kernel.
	SimEvents uint64

	// Transport.
	SegmentsSent    uint64
	Retransmits     uint64
	FastRetransmits uint64
	RTOTimeouts     uint64
	RTOMax          time.Duration
	AcksSent        uint64

	// Network emulation.
	PacketsLostRandom   uint64
	PacketsLostOverflow uint64

	// Producer.
	RecordsEnqueued uint64
	BatchesSent     uint64
	BatchRetries    uint64
	RequestTimeouts uint64
	// QueueDepth histogram: bucket i counts enqueues that left the
	// accumulator at depth <= obs.QueueDepthBounds[i]; the last bucket
	// is the overflow.
	QueueDepth [obs.QueueDepthBuckets]uint64

	// Cases is the Table I distribution indexed by producer.Case
	// (index 0, CaseUnresolved, stays zero in completed runs). Index 5
	// is Case 5 — consumer-observed duplicated messages — which only
	// reconciliation can attribute.
	Cases [6]uint64

	// ProduceErrors counts failed produce responses by wire error code
	// (index = code; index 0, ErrNone, stays zero).
	ProduceErrors [wire.NumErrorCodes]uint64

	// Broker / cluster.
	BrokerProduceRequests uint64
	BrokerAppends         uint64
	BrokerDuplicates      uint64
	BrokerDupAppends      uint64
	BrokerTruncated       uint64
	BrokerUnclean         uint64
	Replications          uint64
	ReplicationFactor     int64 // config-valued gauge

	// Delivery accounting for the measured KPI.
	RecordsDelivered  uint64 // producer acks resolved delivered
	RecordsLost       uint64 // producer records resolved lost
	NetBytesDelivered uint64 // payload bytes the network delivered

	// Consumer group.
	ConsumerDelivered   uint64
	ConsumerRedelivered uint64
	ConsumerCommitAcks  uint64
	ConsumerLagEnd      int64 // lag gauge at snapshot time

	// Per-record latency spans, all timed from producer enqueue except
	// SpanCommit (commit send → durable ack), Rebalance (prepare →
	// generation bump) and Paused (per-partition windows without
	// polling coverage — the consumer-visible rebalance cost).
	SpanSend       SpanHist
	SpanAppend     SpanHist
	SpanReplicated SpanHist
	SpanAck        SpanHist
	SpanDelivery   SpanHist
	SpanCommit     SpanHist
	Rebalance      SpanHist
	Paused         SpanHist
}

// SpanHist is one latency-span histogram flattened to fixed-size
// arrays so MetricsSnapshot stays a comparable struct. Buckets follow
// obs.LatencyBounds; Max is the exact largest observation.
type SpanHist struct {
	Counts [obs.LatencyBuckets]uint64
	Max    time.Duration
}

func spanHist(s obs.Snapshot, name string) SpanHist {
	var out SpanHist
	if h, ok := s.Histogram(name); ok {
		copy(out.Counts[:], h.Counts)
		out.Max = time.Duration(h.Max)
	}
	return out
}

// value reconstitutes the obs view for quantile math.
func (s SpanHist) value() obs.HistogramValue {
	return obs.HistogramValue{Bounds: obs.LatencyBounds[:], Counts: s.Counts[:], Max: int64(s.Max)}
}

// Total returns the observation count.
func (s SpanHist) Total() uint64 { return s.value().Total() }

// Quantile returns the exact-clamped q-quantile (see
// obs.HistogramValue.Quantile).
func (s SpanHist) Quantile(q float64) time.Duration {
	return time.Duration(s.value().Quantile(q))
}

// merge adds counts and takes the max.
func (s *SpanHist) merge(o SpanHist) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// encode renders "name total=N p50=... p95=... p99=... max=..." — the
// quantiles are derived, so byte equality still follows the buckets.
func (s SpanHist) encode(b *strings.Builder, name string) {
	fmt.Fprintf(b, "%s total=%d p50=%v p95=%v p99=%v max=%v\n",
		name, s.Total(), s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99), s.Max)
}

// snapshotMetrics converts a registry snapshot into the fixed struct.
func snapshotMetrics(s obs.Snapshot) MetricsSnapshot {
	m := MetricsSnapshot{
		SimEvents:             s.Counter(obs.MSimEvents),
		SegmentsSent:          s.Counter(obs.MSegmentsSent),
		Retransmits:           s.Counter(obs.MRetransmits),
		FastRetransmits:       s.Counter(obs.MFastRetransmits),
		RTOTimeouts:           s.Counter(obs.MRTOTimeouts),
		RTOMax:                time.Duration(s.Gauge(obs.MRTOMaxNs)),
		AcksSent:              s.Counter(obs.MAcksSent),
		PacketsLostRandom:     s.Counter(obs.MNetLostRandom),
		PacketsLostOverflow:   s.Counter(obs.MNetLostOverflow),
		RecordsEnqueued:       s.Counter(obs.MRecordsEnqueued),
		BatchesSent:           s.Counter(obs.MBatchesSent),
		BatchRetries:          s.Counter(obs.MBatchRetries),
		RequestTimeouts:       s.Counter(obs.MRequestTimeouts),
		BrokerProduceRequests: s.Counter(obs.MBrokerProduce),
		BrokerAppends:         s.Counter(obs.MBrokerAppends),
		BrokerDuplicates:      s.Counter(obs.MBrokerDuplicates),
		BrokerDupAppends:      s.Counter(obs.MBrokerDupAppends),
		BrokerTruncated:       s.Counter(obs.MBrokerTruncated),
		BrokerUnclean:         s.Counter(obs.MBrokerUnclean),
		Replications:          s.Counter(obs.MReplications),
		ReplicationFactor:     s.Gauge(obs.MReplicationFactor),
		RecordsDelivered:      s.Counter(obs.MRecordsDelivered),
		RecordsLost:           s.Counter(obs.MRecordsLost),
		NetBytesDelivered:     s.Counter(obs.MNetBytesDelivered),
		ConsumerDelivered:     s.Counter(obs.MConsumerDelivered),
		ConsumerRedelivered:   s.Counter(obs.MConsumerRedelivered),
		ConsumerCommitAcks:    s.Counter(obs.MConsumerCommitAcks),
		ConsumerLagEnd:        s.Gauge(obs.MConsumerLag),
		SpanSend:              spanHist(s, obs.MSpanSend),
		SpanAppend:            spanHist(s, obs.MSpanAppend),
		SpanReplicated:        spanHist(s, obs.MSpanReplicated),
		SpanAck:               spanHist(s, obs.MSpanAck),
		SpanDelivery:          spanHist(s, obs.MSpanDelivery),
		SpanCommit:            spanHist(s, obs.MSpanCommit),
		Rebalance:             spanHist(s, obs.MRebalanceNs),
		Paused:                spanHist(s, obs.MPausedNs),
	}
	for c := 1; c < wire.NumErrorCodes; c++ {
		m.ProduceErrors[c] = s.Counter(producer.ProduceErrorMetric(wire.ErrorCode(c)))
	}
	if h, ok := s.Histogram(obs.MQueueDepth); ok {
		for i := 0; i < len(m.QueueDepth) && i < len(h.Counts); i++ {
			m.QueueDepth[i] = h.Counts[i]
		}
	}
	return m
}

// Merge accumulates another run's snapshot into m. It is the one place
// the merge policy lives: counters and histogram buckets add, the
// high-water marks (RTOMax, ReplicationFactor, span maxima) take the
// maximum, and the end-of-run lag adds, so drained shards fold to 0.
// Merging is commutative and associative, so a fleet's aggregate is
// identical for every worker count.
func (m *MetricsSnapshot) Merge(o MetricsSnapshot) {
	m.SimEvents += o.SimEvents
	m.SegmentsSent += o.SegmentsSent
	m.Retransmits += o.Retransmits
	m.FastRetransmits += o.FastRetransmits
	m.RTOTimeouts += o.RTOTimeouts
	if o.RTOMax > m.RTOMax {
		m.RTOMax = o.RTOMax
	}
	m.AcksSent += o.AcksSent
	m.PacketsLostRandom += o.PacketsLostRandom
	m.PacketsLostOverflow += o.PacketsLostOverflow
	m.RecordsEnqueued += o.RecordsEnqueued
	m.BatchesSent += o.BatchesSent
	m.BatchRetries += o.BatchRetries
	m.RequestTimeouts += o.RequestTimeouts
	for i := range m.QueueDepth {
		m.QueueDepth[i] += o.QueueDepth[i]
	}
	for i := range m.Cases {
		m.Cases[i] += o.Cases[i]
	}
	for i := range m.ProduceErrors {
		m.ProduceErrors[i] += o.ProduceErrors[i]
	}
	m.BrokerProduceRequests += o.BrokerProduceRequests
	m.BrokerAppends += o.BrokerAppends
	m.BrokerDuplicates += o.BrokerDuplicates
	m.BrokerDupAppends += o.BrokerDupAppends
	m.BrokerTruncated += o.BrokerTruncated
	m.BrokerUnclean += o.BrokerUnclean
	m.Replications += o.Replications
	if o.ReplicationFactor > m.ReplicationFactor {
		m.ReplicationFactor = o.ReplicationFactor
	}
	m.RecordsDelivered += o.RecordsDelivered
	m.RecordsLost += o.RecordsLost
	m.NetBytesDelivered += o.NetBytesDelivered
	m.ConsumerDelivered += o.ConsumerDelivered
	m.ConsumerRedelivered += o.ConsumerRedelivered
	m.ConsumerCommitAcks += o.ConsumerCommitAcks
	m.ConsumerLagEnd += o.ConsumerLagEnd
	m.SpanSend.merge(o.SpanSend)
	m.SpanAppend.merge(o.SpanAppend)
	m.SpanReplicated.merge(o.SpanReplicated)
	m.SpanAck.merge(o.SpanAck)
	m.SpanDelivery.merge(o.SpanDelivery)
	m.SpanCommit.merge(o.SpanCommit)
	m.Rebalance.merge(o.Rebalance)
	m.Paused.merge(o.Paused)
}

// Encode renders the snapshot in a canonical text form, one metric per
// line, for byte-equality comparison and human inspection.
func (m MetricsSnapshot) Encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "sim.events %d\n", m.SimEvents)
	fmt.Fprintf(&b, "transport.segments_sent %d\n", m.SegmentsSent)
	fmt.Fprintf(&b, "transport.retransmits %d\n", m.Retransmits)
	fmt.Fprintf(&b, "transport.fast_retransmits %d\n", m.FastRetransmits)
	fmt.Fprintf(&b, "transport.rto_timeouts %d\n", m.RTOTimeouts)
	fmt.Fprintf(&b, "transport.rto_max %v\n", m.RTOMax)
	fmt.Fprintf(&b, "transport.acks_sent %d\n", m.AcksSent)
	fmt.Fprintf(&b, "netem.lost_random %d\n", m.PacketsLostRandom)
	fmt.Fprintf(&b, "netem.lost_overflow %d\n", m.PacketsLostOverflow)
	fmt.Fprintf(&b, "producer.records_enqueued %d\n", m.RecordsEnqueued)
	fmt.Fprintf(&b, "producer.batches_sent %d\n", m.BatchesSent)
	fmt.Fprintf(&b, "producer.batch_retries %d\n", m.BatchRetries)
	fmt.Fprintf(&b, "producer.request_timeouts %d\n", m.RequestTimeouts)
	fmt.Fprintf(&b, "producer.queue_depth %v\n", m.QueueDepth)
	fmt.Fprintf(&b, "cases %v\n", m.Cases)
	fmt.Fprintf(&b, "producer.produce_errors %v\n", m.ProduceErrors)
	fmt.Fprintf(&b, "broker.produce_requests %d\n", m.BrokerProduceRequests)
	fmt.Fprintf(&b, "broker.appends %d\n", m.BrokerAppends)
	fmt.Fprintf(&b, "broker.duplicates_dropped %d\n", m.BrokerDuplicates)
	fmt.Fprintf(&b, "broker.duplicate_appends %d\n", m.BrokerDupAppends)
	fmt.Fprintf(&b, "broker.records_truncated %d\n", m.BrokerTruncated)
	fmt.Fprintf(&b, "broker.unclean_restarts %d\n", m.BrokerUnclean)
	fmt.Fprintf(&b, "cluster.replications %d\n", m.Replications)
	fmt.Fprintf(&b, "cluster.replication_factor %d\n", m.ReplicationFactor)
	fmt.Fprintf(&b, "producer.records_delivered %d\n", m.RecordsDelivered)
	fmt.Fprintf(&b, "producer.records_lost %d\n", m.RecordsLost)
	fmt.Fprintf(&b, "netem.bytes_delivered %d\n", m.NetBytesDelivered)
	fmt.Fprintf(&b, "consumer.delivered %d\n", m.ConsumerDelivered)
	fmt.Fprintf(&b, "consumer.redelivered %d\n", m.ConsumerRedelivered)
	fmt.Fprintf(&b, "consumer.commit_acks %d\n", m.ConsumerCommitAcks)
	fmt.Fprintf(&b, "consumer.lag_end %d\n", m.ConsumerLagEnd)
	m.SpanSend.encode(&b, "span.enqueue_to_send")
	m.SpanAppend.encode(&b, "span.enqueue_to_append")
	m.SpanReplicated.encode(&b, "span.enqueue_to_replicated")
	m.SpanAck.encode(&b, "span.enqueue_to_ack")
	m.SpanDelivery.encode(&b, "span.enqueue_to_delivery")
	m.SpanCommit.encode(&b, "span.commit")
	m.Rebalance.encode(&b, "coordinator.rebalance")
	m.Paused.encode(&b, "consumer.paused")
	return []byte(b.String())
}
