package testbed

import (
	"fmt"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/features"
	"kafkarel/internal/obs"
	"kafkarel/internal/transport"
)

// NetworkProbe is a live estimate of the network condition, sampled from
// the producer's own transport statistics — what an online controller
// can actually observe, as opposed to the oracle trace the offline
// scheme assumes (Sec. V: "we assume the network status to be known...
// Running an online algorithm for dynamic configuration is beyond the
// scope of this paper"). This repo implements that online algorithm as
// an extension.
type NetworkProbe struct {
	// At is the virtual sample time.
	At time.Duration
	// SRTTMs is the transport's smoothed round-trip estimate.
	SRTTMs float64
	// EstDelayMs is the one-way delay estimate (SRTT/2).
	EstDelayMs float64
	// RetransRate is retransmissions per data segment over the last
	// interval — a proxy for the packet-loss rate.
	RetransRate float64
	// EstLoss is the controller-facing loss estimate derived from
	// RetransRate, clamped to [0, 0.9].
	EstLoss float64
	// QueueLen is the producer accumulator depth.
	QueueLen int
	// Timeouts counts RTO events in the last interval (burst indicator).
	Timeouts uint64
}

// Controller decides, from a live probe, the next configuration. ok =
// false keeps the current configuration.
type Controller func(probe NetworkProbe) (next features.Vector, ok bool)

// RunOnline executes the experiment while sampling the transport every
// interval and letting the controller reconfigure the producer — the
// online counterpart of the offline Schedule mechanism.
func RunOnline(e Experiment, interval time.Duration, ctrl Controller) (Result, error) {
	if ctrl == nil {
		return Result{}, fmt.Errorf("testbed: nil controller")
	}
	if interval <= 0 {
		return Result{}, fmt.Errorf("testbed: non-positive probe interval %v", interval)
	}
	sim := des.New()
	r, err := e.assemble(sim)
	if err != nil {
		return Result{}, err
	}
	r.start()

	c := r.clients[0]
	var prev transport.Stats
	// The ticker stops itself at the first tick after the producer
	// completes, so the event queue drains naturally.
	var ticker *des.Ticker
	ticker = des.NewTicker(sim, interval, func() {
		if c.prod.Done() {
			ticker.Stop()
			return
		}
		cur := c.conn.Client.Stats()
		probe := NetworkProbe{
			At:       sim.Now(),
			SRTTMs:   float64(cur.SRTT) / float64(time.Millisecond),
			QueueLen: c.prod.QueueLen(),
			Timeouts: cur.Timeouts - prev.Timeouts,
		}
		probe.EstDelayMs = probe.SRTTMs / 2
		sent := cur.SegmentsSent - prev.SegmentsSent
		retrans := cur.Retransmissions - prev.Retransmissions
		if sent > 0 {
			probe.RetransRate = float64(retrans) / float64(sent)
		}
		probe.EstLoss = probe.RetransRate
		if probe.EstLoss > 0.9 {
			probe.EstLoss = 0.9
		}
		prev = cur
		next, ok := ctrl(probe)
		if !ok {
			return
		}
		sub := e
		sub.Features = next
		ncfg, err := producerConfig(sub, streamTopic)
		if err == nil {
			err = c.prod.Reconfigure(ncfg)
		}
		if err != nil {
			r.fail(err)
			return
		}
		e.Timeline.Annotate(obs.AnnOnlineDecision, fmt.Sprintf(
			"est_delay_ms=%.1f est_loss=%.3f %s",
			probe.EstDelayMs, probe.EstLoss, describeConfig(next)))
	})

	if err := r.run(e.MaxSimTime); err != nil {
		return Result{}, fmt.Errorf("testbed: %w", err)
	}
	return r.collect(e)
}
