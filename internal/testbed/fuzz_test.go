package testbed

import (
	"context"
	"errors"
	"testing"
	"time"

	"kafkarel/internal/chaos"
	"kafkarel/internal/des"
	"kafkarel/internal/features"
)

// fuzzSetter mutates one field of a T from a fuzzed integer. Counts are
// folded below a bound a small run finishes within in milliseconds, and
// durations are whole milliseconds up to ±100 s, so an input can be
// hostile but not merely large; the sign always survives.
type fuzzSetter[T any] struct {
	name string
	set  func(x *T, v int64)
}

// vectorFields are the feature-vector mutations FuzzExperiment and
// FuzzFleet share.
var vectorFields = []fuzzSetter[features.Vector]{
	{"MessageSize", func(f *features.Vector, v int64) { f.MessageSize = int(v % 200_000_000) }},
	{"Timeliness", func(f *features.Vector, v int64) { f.Timeliness = fuzzMillis(v) }},
	{"DelayMs", func(f *features.Vector, v int64) { f.DelayMs = float64(v%1_000_000) / 10 }},
	{"LossRate", func(f *features.Vector, v int64) { f.LossRate = float64(v%2000) / 1000 }},
	{"Semantics", func(f *features.Vector, v int64) { f.Semantics = int(v % 8) }},
	{"BatchSize", func(f *features.Vector, v int64) { f.BatchSize = int(v % 1_000_000) }},
	{"PollInterval", func(f *features.Vector, v int64) { f.PollInterval = fuzzMillis(v) }},
	{"MessageTimeout", func(f *features.Vector, v int64) { f.MessageTimeout = fuzzMillis(v) }},
}

// withVector appends vectorFields, applied to the vector inside a T.
func withVector[T any](fields []fuzzSetter[T], vec func(*T) *features.Vector) []fuzzSetter[T] {
	for _, vf := range vectorFields {
		fields = append(fields, fuzzSetter[T]{vf.name, func(x *T, v int64) { vf.set(vec(x), v) }})
	}
	return fields
}

// experimentFields are the fields FuzzExperiment mutates, one per input.
var experimentFields = withVector([]fuzzSetter[Experiment]{
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
}, func(e *Experiment) *features.Vector { return &e.Features })

// fleetFault sets a one-fault plan, a 1 s crash of broker 0 at 1 s,
// after mutate changed one of its fields. Slowdown is set for when the
// kind becomes BrokerSlow.
func fleetFault(f *Fleet, mutate func(*chaos.Fault)) {
	ft := chaos.Fault{Kind: chaos.BrokerCrash, At: time.Second, Duration: time.Second, Slowdown: 2}
	mutate(&ft)
	f.FaultPlan = chaos.Plan{Faults: []chaos.Fault{ft}}
}

// fleetFields are the fields FuzzFleet mutates, one per input.
var fleetFields = withVector([]fuzzSetter[Fleet]{
	{"Producers", func(f *Fleet, v int64) { f.Producers = int(v % 64) }},
	{"Topics", func(f *Fleet, v int64) { f.Topics = int(v % 16) }},
	{"Partitions", func(f *Fleet, v int64) { f.Partitions = int(v % 2048) }},
	{"Messages", func(f *Fleet, v int64) { f.Messages = int(v % 5000) }},
	{"Seed", func(f *Fleet, v int64) { f.Seed = uint64(v) }},
	{"UsersPerSec", func(f *Fleet, v int64) { f.UsersPerSec = float64(v%1_000_000) / 10 }},
	{"ConsumersPerTopic", func(f *Fleet, v int64) { f.ConsumersPerTopic = int(v % 8) }},
	{"Groups", func(f *Fleet, v int64) { f.Groups = int(v % 4) }},
	{"Cooperative", func(f *Fleet, v int64) { f.Cooperative = v%2 != 0 }},
	{"ConsumerFaults", func(f *Fleet, v int64) { f.ConsumerFaults = v%2 != 0 }},
	{"MaxSimTime", func(f *Fleet, v int64) { f.MaxSimTime = fuzzMillis(v) }},
	{"TimelineInterval", func(f *Fleet, v int64) { f.TimelineInterval = fuzzMillis(v) }},
	{"DisableMetrics", func(f *Fleet, v int64) { f.DisableMetrics = v%2 != 0 }},
	{"FaultKind", func(f *Fleet, v int64) { fleetFault(f, func(ft *chaos.Fault) { ft.Kind = chaos.Kind(v % 16) }) }},
	{"FaultAt", func(f *Fleet, v int64) { fleetFault(f, func(ft *chaos.Fault) { ft.At = fuzzMillis(v) }) }},
	{"FaultDuration", func(f *Fleet, v int64) { fleetFault(f, func(ft *chaos.Fault) { ft.Duration = fuzzMillis(v) }) }},
	{"FaultBroker", func(f *Fleet, v int64) { fleetFault(f, func(ft *chaos.Fault) { ft.Broker = int32(v % 8) }) }},
	{"FaultMember", func(f *Fleet, v int64) {
		fleetFault(f, func(ft *chaos.Fault) { ft.Kind, ft.Member = chaos.ConsumerCrash, int32(v%8) })
	}},
	{"FaultGroup", func(f *Fleet, v int64) {
		fleetFault(f, func(ft *chaos.Fault) { ft.Kind, ft.Group = chaos.ConsumerCrash, int32(v%8) })
	}},
}, func(f *Fleet) *features.Vector { return &f.Features })

func fuzzMillis(v int64) time.Duration { return time.Duration(v%100_000) * time.Millisecond }

// fuzzIndex is the index of the named entry of fields.
func fuzzIndex[T any](t testing.TB, fields []fuzzSetter[T], name string) uint8 {
	for i, f := range fields {
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
		f.Add(fuzzIndex(f, experimentFields, row.field), row.v)
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

// FuzzFleet mutates one field of smallFleet, given a one-minute horizon,
// per input and requires RunFleet to reject it with an error, or to
// finish every shard within the horizon and under the event cap. The
// seed corpus is TestFleetValidation's rows; a row that sets two fields
// seeds each of them.
func FuzzFleet(f *testing.F) {
	for _, row := range []struct {
		field string
		v     int64
	}{
		{"Producers", 0}, {"Topics", 0}, {"Topics", 10}, {"Partitions", 0},
		{"Messages", 8}, {"UsersPerSec", -10}, {"ConsumersPerTopic", -1},
		{"Groups", -1}, {"MaxSimTime", -1000}, {"TimelineInterval", -1000},
		{"ConsumerFaults", 1}, {"ConsumersPerTopic", 1},
		{"FaultMember", 5}, {"FaultKind", int64(chaos.LossBurst)},
		{"FaultBroker", 99},
	} {
		f.Add(fuzzIndex(f, fleetFields, row.field), row.v)
	}
	defer func(c uint64) { eventCap = c }(eventCap)
	eventCap = 5_000_000
	f.Fuzz(func(t *testing.T, field uint8, v int64) {
		fl := smallFleet()
		fl.MaxSimTime = time.Minute
		fld := fleetFields[int(field)%len(fleetFields)]
		fld.set(&fl, v)
		res, err := RunFleetContext(context.Background(), fl, 1)
		switch {
		case errors.Is(err, des.ErrStopped):
			t.Fatalf("%s = %d: %v", fld.name, v, err)
		case err != nil:
			return
		case fl.MaxSimTime > 0 && res.Duration > fl.MaxSimTime:
			t.Fatalf("%s = %d: ran %v past the %v horizon", fld.name, v, res.Duration, fl.MaxSimTime)
		}
	})
}
