package figures

import (
	"encoding/csv"
	"io"
	"strconv"
	"time"

	"kafkarel/internal/features"
	"kafkarel/internal/obs"
	"kafkarel/internal/testbed"
)

// The latency family is an extension beyond the paper's figures: the
// paper's timeliness requirement (T_p ≤ S) is evaluated producer-side,
// while the per-record spans measure the whole delivery path —
// enqueue → wire send → broker append → replication → producer ack →
// consumer delivery → durable commit — so each semantics gets an
// empirical latency distribution, not just a stale rate. Every point
// runs a consumer group so the delivery and commit spans fire.

// LatencyPoint is one latency-distribution marker: the key spans of a
// run at one delivery semantics under one network condition.
type LatencyPoint struct {
	Semantics int
	DelayMs   float64
	LossRate  float64

	Send     testbed.SpanHist // enqueue → first wire send
	Ack      testbed.SpanHist // enqueue → producer ack
	Delivery testbed.SpanHist // enqueue → consumer delivery
	Commit   testbed.SpanHist // commit send → durable ack
}

// LatencySemantics is the swept semantics axis.
var LatencySemantics = []int{
	features.SemanticsAtMostOnce,
	features.SemanticsAtLeastOnce,
	features.SemanticsExactlyOnce,
}

// latencyLosses are the two network conditions: a clean LAN and the
// mild-loss WAN used by the throughput family.
var latencyLosses = []float64{0, 0.02}

// LatencyVector returns the experiment definition for one latency
// point.
func LatencyVector(semantics int, loss float64) features.Vector {
	return features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        10,
		LossRate:       loss,
		Semantics:      semantics,
		BatchSize:      2,
		PollInterval:   0,
		MessageTimeout: 1500 * time.Millisecond,
	}
}

// Latency measures the end-to-end latency spans over semantics × loss.
// Each experiment runs one consumer-group member alongside the
// producer; points fan out over the worker pool and the series is
// identical for any Workers value.
func Latency(o Options) ([]LatencyPoint, error) {
	var vs []features.Vector
	for _, sem := range LatencySemantics {
		for _, loss := range latencyLosses {
			vs = append(vs, LatencyVector(sem, loss))
		}
	}
	results, err := runBatch(o, 1000, vs, func(e *testbed.Experiment) { e.Consumers = 1 })
	if err != nil {
		return nil, err
	}
	out := make([]LatencyPoint, len(vs))
	for i, v := range vs {
		out[i] = LatencyPoint{
			Semantics: v.Semantics,
			DelayMs:   v.DelayMs,
			LossRate:  v.LossRate,
			Send:      results[i].Metrics.SpanSend,
			Ack:       results[i].Metrics.SpanAck,
			Delivery:  results[i].Metrics.SpanDelivery,
			Commit:    results[i].Metrics.SpanCommit,
		}
	}
	return out, nil
}

// WriteLatencyCSV renders the percentile series: one row per
// (point, span) with p50/p95/p99/max in nanoseconds.
func WriteLatencyCSV(w io.Writer, points []LatencyPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"semantics", "delay_ms", "loss_rate", "span", "count", "p50_ns", "p95_ns", "p99_ns", "max_ns"}); err != nil {
		return err
	}
	for _, p := range points {
		for _, s := range []struct {
			name string
			h    testbed.SpanHist
		}{
			{"enqueue_to_send", p.Send},
			{"enqueue_to_ack", p.Ack},
			{"enqueue_to_delivery", p.Delivery},
			{"commit", p.Commit},
		} {
			rec := []string{
				strconv.Itoa(p.Semantics), csvG(p.DelayMs), csvG(p.LossRate), s.name,
				strconv.FormatUint(s.h.Total(), 10),
				strconv.FormatInt(int64(s.h.Quantile(0.50)), 10),
				strconv.FormatInt(int64(s.h.Quantile(0.95)), 10),
				strconv.FormatInt(int64(s.h.Quantile(0.99)), 10),
				strconv.FormatInt(int64(s.h.Max), 10),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteLatencyCDFCSV renders the end-to-end delivery span of every
// point as an empirical CDF over the histogram bucket bounds: one row
// per (point, bucket) with the cumulative delivered fraction at the
// bound.
func WriteLatencyCDFCSV(w io.Writer, points []LatencyPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"semantics", "delay_ms", "loss_rate", "bound_ns", "cum_fraction"}); err != nil {
		return err
	}
	for _, p := range points {
		n := p.Delivery.Total()
		if n == 0 {
			continue
		}
		var cum uint64
		for i, c := range p.Delivery.Counts {
			cum += c
			bound := int64(p.Delivery.Max)
			if i < len(obs.LatencyBounds) {
				bound = obs.LatencyBounds[i]
			}
			rec := []string{
				strconv.Itoa(p.Semantics), csvG(p.DelayMs), csvG(p.LossRate),
				strconv.FormatInt(bound, 10),
				csvG(float64(cum) / float64(n)),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
