package testbed

import (
	"errors"
	"testing"
	"time"

	"kafkarel/internal/des"
)

// experimentFields are the fields FuzzExperiment mutates, one per input.
// Counts are folded below a bound a 200-message run finishes within in
// milliseconds, and durations are whole milliseconds up to ±100 s, so an
// input can be hostile but not merely large; the sign always survives.
var experimentFields = []struct {
	name string
	set  func(e *Experiment, v int64)
}{
	{"Messages", func(e *Experiment, v int64) { e.Messages = int(v % 5000) }},
	{"Seed", func(e *Experiment, v int64) { e.Seed = uint64(v) }},
	{"Partitions", func(e *Experiment, v int64) { e.Partitions = int(v % 2048) }},
	{"ReplicationFactor", func(e *Experiment, v int64) { e.ReplicationFactor = int(v % 8) }},
	{"MinISR", func(e *Experiment, v int64) { e.MinISR = int(v % 8) }},
	{"Consumers", func(e *Experiment, v int64) { e.Consumers = int(v % 8) }},
	{"Groups", func(e *Experiment, v int64) { e.Groups = int(v % 4) }},
	{"Cooperative", func(e *Experiment, v int64) { e.Cooperative = v%2 != 0 }},
	{"OffsetsReplication", func(e *Experiment, v int64) { e.OffsetsReplication = int(v % 8) }},
	{"BrokerFlushInterval", func(e *Experiment, v int64) { e.BrokerFlushInterval = fuzzMillis(v) }},
	{"QueueLimit", func(e *Experiment, v int64) { e.QueueLimit = int(v % 1024) }},
	{"MaxInFlight", func(e *Experiment, v int64) { e.MaxInFlight = int(v % 64) }},
	{"MaxRetries", func(e *Experiment, v int64) { e.MaxRetries = int(v % 64) }},
	{"RequestTimeout", func(e *Experiment, v int64) { e.RequestTimeout = fuzzMillis(v) }},
	{"RetryBackoff", func(e *Experiment, v int64) { e.RetryBackoff = fuzzMillis(v) }},
	{"RetryBackoffMax", func(e *Experiment, v int64) { e.RetryBackoffMax = fuzzMillis(v) }},
	{"MaxSimTime", func(e *Experiment, v int64) { e.MaxSimTime = fuzzMillis(v) }},
	{"MessageSize", func(e *Experiment, v int64) { e.Features.MessageSize = int(v % 200_000_000) }},
	{"Timeliness", func(e *Experiment, v int64) { e.Features.Timeliness = fuzzMillis(v) }},
	{"DelayMs", func(e *Experiment, v int64) { e.Features.DelayMs = float64(v%1_000_000) / 10 }},
	{"LossRate", func(e *Experiment, v int64) { e.Features.LossRate = float64(v%2000) / 1000 }},
	{"Semantics", func(e *Experiment, v int64) { e.Features.Semantics = int(v % 8) }},
	{"BatchSize", func(e *Experiment, v int64) { e.Features.BatchSize = int(v % 1_000_000) }},
	{"PollInterval", func(e *Experiment, v int64) { e.Features.PollInterval = fuzzMillis(v) }},
	{"MessageTimeout", func(e *Experiment, v int64) { e.Features.MessageTimeout = fuzzMillis(v) }},
	{"ScheduledBatchSize", func(e *Experiment, v int64) {
		f := e.Features
		f.BatchSize = int(v % 1_000_000)
		e.Schedule = []ConfigChange{{At: time.Second, Features: f}}
	}},
	{"ScheduledAt", func(e *Experiment, v int64) {
		e.Schedule = []ConfigChange{{At: fuzzMillis(v), Features: e.Features}}
	}},
	{"ScheduledPollInterval", func(e *Experiment, v int64) {
		f := e.Features
		f.PollInterval = fuzzMillis(v)
		e.Schedule = []ConfigChange{{At: time.Second, Features: f}}
	}},
	{"ScheduledMessageTimeout", func(e *Experiment, v int64) {
		f := e.Features
		f.MessageTimeout = fuzzMillis(v)
		e.Schedule = []ConfigChange{{At: time.Second, Features: f}}
	}},
}

func fuzzMillis(v int64) time.Duration { return time.Duration(v%100_000) * time.Millisecond }

// fuzzField is the index of the named experimentFields entry.
func fuzzField(t testing.TB, name string) uint8 {
	for i, f := range experimentFields {
		if f.name == name {
			return uint8(i)
		}
	}
	t.Fatalf("no fuzzed field %q", name)
	return 0
}

// FuzzExperiment mutates one field of a valid 200-message experiment per
// input and requires Run to reject it with an error, or to finish within
// its horizon and under the event cap. The seed corpus is
// TestRunRejectsHostileConfiguration's rows; a row that sets two fields
// seeds each of them.
func FuzzExperiment(f *testing.F) {
	for _, row := range []struct {
		field string
		v     int64
	}{
		{"MaxInFlight", -1}, {"RequestTimeout", -1}, {"RetryBackoff", -1000},
		{"RetryBackoffMax", -1000}, {"QueueLimit", -1}, {"MaxRetries", -1},
		{"Partitions", -1}, {"ReplicationFactor", -1}, {"MinISR", -1},
		{"Consumers", -1}, {"Groups", -1}, {"OffsetsReplication", -1},
		{"MaxSimTime", -1000}, {"MinISR", 4},
		{"ReplicationFactor", 1}, {"MinISR", 2},
		{"MessageSize", 100_000_000},
		{"MessageSize", 2_000_000}, {"BatchSize", 10},
		{"ScheduledBatchSize", 100_000},
		{"ScheduledAt", -1000}, {"ScheduledMessageTimeout", 0},
		{"ScheduledPollInterval", -1}, {"ScheduledBatchSize", 0},
	} {
		f.Add(fuzzField(f, row.field), row.v)
	}
	// A runaway must stop in a fraction of a second, not after 2·10⁹
	// events; no valid mutation comes near this many.
	defer func(c uint64) { eventCap = c }(eventCap)
	eventCap = 5_000_000
	f.Fuzz(func(t *testing.T, field uint8, v int64) {
		e := Experiment{Features: cleanVector(), Messages: 200, Seed: 1, MaxSimTime: time.Minute}
		fld := experimentFields[int(field)%len(experimentFields)]
		fld.set(&e, v)
		res, err := Run(e)
		switch {
		case errors.Is(err, des.ErrStopped):
			t.Fatalf("%s = %d: %v", fld.name, v, err)
		case err != nil:
			return
		case e.MaxSimTime > 0 && res.Duration > e.MaxSimTime:
			t.Fatalf("%s = %d: ran %v past the %v horizon", fld.name, v, res.Duration, e.MaxSimTime)
		}
	})
}
