package consumer

import (
	"math/rand/v2"
	"testing"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/des"
	"kafkarel/internal/netem"
	"kafkarel/internal/stats"
	"kafkarel/internal/transport"
	"kafkarel/internal/wire"
)

// clientRig builds a seeded cluster reachable over an emulated network.
func clientRig(t *testing.T, keys int, delayMs, loss float64, seed uint64) (*des.Simulator, *Client) {
	t.Helper()
	sim := des.New()
	mk := func(s uint64) netem.Config {
		c := netem.Config{Bandwidth: 100e6}
		if delayMs > 0 {
			c.Delay = stats.Constant{Value: delayMs}
		}
		if loss > 0 {
			l, err := stats.NewBernoulli(loss, rand.New(rand.NewPCG(s, 5)))
			if err != nil {
				t.Fatal(err)
			}
			c.Loss = l
		}
		return c
	}
	path, err := netem.NewPath(sim, mk(seed), mk(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := transport.NewConn(sim, path, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("t", 1, 3); err != nil {
		t.Fatal(err)
	}
	srv, err := cluster.NewServer(c, conn.Server)
	if err != nil {
		t.Fatal(err)
	}
	conn.OnReset(srv.ResetParser)
	recs := make([]wire.Record, 0, keys)
	for i := 1; i <= keys; i++ {
		recs = append(recs, wire.Record{Key: uint64(i), Payload: []byte("xx")})
	}
	c.Leader("t", 0).Log("t", 0).Append(recs)
	client, err := NewClient(sim, conn, "t", 0, WithFetchMax(64))
	if err != nil {
		t.Fatal(err)
	}
	return sim, client
}

func TestClientConsumeAllCleanNetwork(t *testing.T) {
	sim, client := clientRig(t, 500, 5, 0, 1)
	var got []wire.Record
	var gotErr error
	if err := client.ConsumeAll(func(r []wire.Record, err error) { got, gotErr = r, err }); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunLimit(10_000_000); err != nil {
		t.Fatal(err)
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if len(got) != 500 {
		t.Fatalf("got %d records, want 500", len(got))
	}
	for i, r := range got {
		if r.Key != uint64(i+1) {
			t.Fatalf("record %d key = %d", i, r.Key)
		}
	}
	rep := reconcile(500, got)
	if rep.NLost != 0 || rep.NDuplicated != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestClientConsumeAllLossyNetwork(t *testing.T) {
	sim, client := clientRig(t, 300, 10, 0.15, 2)
	var got []wire.Record
	var gotErr error
	if err := client.ConsumeAll(func(r []wire.Record, err error) { got, gotErr = r, err }); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunLimit(50_000_000); err != nil {
		t.Fatal(err)
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if len(got) != 300 {
		t.Fatalf("got %d records under loss, want 300 (transport must mask loss)", len(got))
	}
}

func TestClientEmptyTopic(t *testing.T) {
	sim, client := clientRig(t, 0, 1, 0, 3)
	var got []wire.Record
	called := false
	if err := client.ConsumeAll(func(r []wire.Record, err error) {
		got, called = r, true
		if err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunLimit(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !called || len(got) != 0 {
		t.Errorf("called=%v records=%d", called, len(got))
	}
}

func TestClientFetchMetadata(t *testing.T) {
	sim, client := clientRig(t, 1, 1, 0, 4)
	var md wire.MetadataResponse
	if err := client.FetchMetadata(func(r wire.MetadataResponse) { md = r }); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunLimit(1_000_000); err != nil {
		t.Fatal(err)
	}
	if md.Topic != "t" || len(md.Partitions) != 1 || md.Partitions[0].Leader != 0 {
		t.Errorf("metadata = %+v", md)
	}
	if err := client.FetchMetadata(nil); err == nil {
		t.Error("nil callback accepted")
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient(nil, nil, "t", 0); err == nil {
		t.Error("nil deps accepted")
	}
	sim, client := clientRig(t, 1, 1, 0, 5)
	_ = sim
	if err := client.ConsumeAll(nil); err == nil {
		t.Error("nil callback accepted")
	}
	if err := client.ConsumeAll(func([]wire.Record, error) {}); err != nil {
		t.Fatal(err)
	}
	if err := client.ConsumeAll(func([]wire.Record, error) {}); err == nil {
		t.Error("double start accepted")
	}
}

func TestClientRetriesThroughOutage(t *testing.T) {
	// 100% loss for the first 3 seconds breaks the fetch; the client's
	// timeout resets the connection and finishes once the network heals.
	sim := des.New()
	path, err := netem.NewPath(sim, netem.Config{}, netem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	total, err := stats.NewBernoulli(1, rand.New(rand.NewPCG(6, 6)))
	if err != nil {
		t.Fatal(err)
	}
	path.SetLoss(total)
	conn, err := transport.NewConn(sim, path, transport.Config{MaxRetries: 2, InitialRTO: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("t", 1, 1); err != nil {
		t.Fatal(err)
	}
	srv, err := cluster.NewServer(c, conn.Server)
	if err != nil {
		t.Fatal(err)
	}
	conn.OnReset(srv.ResetParser)
	c.Leader("t", 0).Log("t", 0).Append([]wire.Record{{Key: 1}, {Key: 2}})
	client, err := NewClient(sim, conn, "t", 0, WithRequestTimeout(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sim.Schedule(3*time.Second, func() { path.SetLoss(stats.NoLoss{}) })
	var got []wire.Record
	var gotErr error
	if err := client.ConsumeAll(func(r []wire.Record, err error) { got, gotErr = r, err }); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunLimit(10_000_000); err != nil {
		t.Fatal(err)
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records after outage, want 2", len(got))
	}
}
