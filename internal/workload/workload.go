// Package workload generates the source data streams the paper feeds its
// producer: payloads of configurable size (Sec. III-E: "the payload of
// the message is a string of definable length") and the three
// application stream profiles of the dynamic-configuration evaluation
// (Table II).
package workload

import (
	"fmt"
	"time"
)

// FixedSource yields count payloads of exactly size bytes. Payloads share
// one zeroed backing array because message content is irrelevant to the
// experiments; only the size matters on the wire.
type FixedSource struct {
	payload []byte
	left    int
}

// NewFixedSource builds a source of count messages of size bytes each.
func NewFixedSource(size, count int) (*FixedSource, error) {
	if size < 0 {
		return nil, fmt.Errorf("workload: negative size %d", size)
	}
	if count < 0 {
		return nil, fmt.Errorf("workload: negative count %d", count)
	}
	return &FixedSource{payload: make([]byte, size), left: count}, nil
}

// Next implements producer.Source.
func (s *FixedSource) Next() ([]byte, bool) {
	if s.left == 0 {
		return nil, false
	}
	s.left--
	return s.payload, true
}

// Profile describes one of the application streams in Table II: its
// message-size regime, its timeliness requirement S, and the suggested
// KPI weights (ω_l, ω_d).
type Profile struct {
	Name string
	// MeanSize is the typical message size M in bytes.
	MeanSize int
	// Timeliness is the validity window S of a message.
	Timeliness time.Duration
	// Weights are the suggested ω_l and ω_d (1-P_l, 1-P_d), summing to
	// 1: the paper's ω3:ω4 ratio for the stream, rescaled.
	Weights [2]float64
}

// The three Table II stream profiles.
var (
	// SocialMedia: text messages that "must be delivered quickly with the
	// lowest loss rate".
	SocialMedia = Profile{
		Name:       "social-media",
		MeanSize:   250,
		Timeliness: 5 * time.Second,
		Weights:    [2]float64{2.0 / 3, 1.0 / 3},
	}
	// WebLogs: access records (~200 B) with lax timeliness but strict
	// completeness; duplicates are acceptable (idempotent processing).
	WebLogs = Profile{
		Name:       "web-logs",
		MeanSize:   200,
		Timeliness: 60 * time.Second,
		Weights:    [2]float64{0.875, 0.125},
	}
	// GameTraffic: small (<100 B) real-time messages that must arrive
	// accurately and immediately.
	GameTraffic = Profile{
		Name:       "game-traffic",
		MeanSize:   80,
		Timeliness: 500 * time.Millisecond,
		Weights:    [2]float64{0.5, 0.5},
	}
)

// Profiles lists the Table II streams in paper order.
func Profiles() []Profile { return []Profile{SocialMedia, WebLogs, GameTraffic} }
