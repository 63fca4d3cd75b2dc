package consumer

import (
	"fmt"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/transport"
	"kafkarel/internal/wire"
)

// Client is a network consumer: it speaks the wire protocol over a
// transport connection, like the paper's consumer container joining the
// testbed's bridge network. The in-process Consumer above is the fast
// path used for reconciliation after fault injection stops; Client
// exists for end-to-end runs where the consumer's own network matters.
type Client struct {
	sim       *des.Simulator
	conn      *transport.Conn
	topic     string
	partition int32
	fetchMax  int32
	timeout   time.Duration

	splitter wire.Splitter
	dec      wire.Decoder
	// slab owns the payloads of the retained records.
	slab     wire.Slab
	bodyBuf  []byte // request-encoding scratch
	frameBuf []byte // frame-encoding scratch; Endpoint.Send copies
	corr     uint32
	offset   int64
	records  []wire.Record
	timer    *des.Timer
	done     bool
	onDone   func([]wire.Record, error)
	meta     func(wire.MetadataResponse)
}

// ClientOption customises a Client.
type ClientOption func(*Client)

// WithFetchMax sets the per-fetch record cap (default 2048).
func WithFetchMax(n int32) ClientOption {
	return func(c *Client) { c.fetchMax = n }
}

// WithRequestTimeout sets the per-fetch retry timeout (default 2 s).
func WithRequestTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// NewClient wires a consumer to the client side of a connection whose
// server side is a cluster.Server.
func NewClient(sim *des.Simulator, conn *transport.Conn, topic string, partition int32, opts ...ClientOption) (*Client, error) {
	if sim == nil || conn == nil {
		return nil, fmt.Errorf("consumer: nil simulator or connection")
	}
	if topic == "" {
		return nil, fmt.Errorf("consumer: empty topic")
	}
	c := &Client{
		sim:       sim,
		conn:      conn,
		topic:     topic,
		partition: partition,
		fetchMax:  2048,
		timeout:   2 * time.Second,
	}
	for _, opt := range opts {
		opt(c)
	}
	c.dec.Topic = topic
	conn.Client.OnReceive(c.onBytes)
	conn.OnReset(func() { c.splitter = wire.Splitter{} })
	c.timer = des.NewTimer(sim, c.onTimeout)
	return c, nil
}

// ConsumeAll starts draining the partition from offset zero; onDone
// fires once with every record (or an error). Drive the simulator to
// completion after calling it.
func (c *Client) ConsumeAll(onDone func([]wire.Record, error)) error {
	if onDone == nil {
		return fmt.Errorf("consumer: nil completion callback")
	}
	if c.onDone != nil {
		return fmt.Errorf("consumer: ConsumeAll already started")
	}
	c.onDone = onDone
	c.sendFetch()
	return nil
}

// FetchMetadata asks the cluster for the topic's partition leadership.
func (c *Client) FetchMetadata(onResp func(wire.MetadataResponse)) error {
	if onResp == nil {
		return fmt.Errorf("consumer: nil metadata callback")
	}
	c.meta = onResp
	c.corr++
	req := wire.MetadataRequest{CorrelationID: c.corr, Topic: c.topic}
	return c.send(wire.APIMetadata, req.Encode(c.bodyBuf[:0]))
}

// send frames an encoded request body through the client's reused
// buffers; Endpoint.Send copies, so both are free for the next request.
func (c *Client) send(api uint16, body []byte) error {
	c.bodyBuf = body
	c.frameBuf = wire.AppendFrame(c.frameBuf[:0], api, body)
	return c.conn.Client.Send(c.frameBuf)
}

func (c *Client) sendFetch() {
	if c.done {
		return
	}
	c.corr++
	req := wire.FetchRequest{
		CorrelationID: c.corr,
		Topic:         c.topic,
		Partition:     c.partition,
		Offset:        c.offset,
		MaxRecords:    c.fetchMax,
	}
	if err := c.send(wire.APIFetch, req.Encode(c.bodyBuf[:0])); err != nil {
		// Broken connection: retry after the timeout; the transport layer
		// resets underneath us via the producer-style reconnect, or the
		// timer keeps trying.
		c.timer.Reset(c.timeout)
		return
	}
	c.timer.Reset(c.timeout)
}

func (c *Client) onTimeout() {
	if c.done {
		return
	}
	if c.conn.Client.Broken() {
		c.conn.Reset()
	}
	c.sendFetch()
}

func (c *Client) onBytes(chunk []byte) {
	frames, err := c.splitter.Push(chunk)
	if err != nil {
		c.splitter = wire.Splitter{}
		return
	}
	for _, f := range frames {
		switch f.API {
		case wire.APIFetch:
			resp, err := c.dec.FetchResponse(f.Body)
			if err != nil {
				continue
			}
			c.onFetchResponse(resp)
		case wire.APIMetadata:
			resp, err := wire.DecodeMetadataResponse(f.Body)
			if err != nil || c.meta == nil {
				continue
			}
			cb := c.meta
			c.meta = nil
			cb(resp)
		}
	}
}

func (c *Client) onFetchResponse(resp wire.FetchResponse) {
	if c.done || resp.CorrelationID != c.corr {
		return // stale response from a retried fetch
	}
	c.timer.Stop()
	if resp.Err != wire.ErrNone {
		c.finish(fmt.Errorf("consumer: fetch at offset %d: %s", c.offset, resp.Err))
		return
	}
	// The response's records alias the splitter buffer and the decoder's
	// record scratch, both reused by the next network delivery; clone them
	// before retaining across simulated time.
	c.records = append(c.records, c.slab.Clone(resp.Records)...)
	c.offset += int64(len(resp.Records))
	if len(resp.Records) == 0 && c.offset >= resp.HighWatermark {
		c.finish(nil)
		return
	}
	c.sendFetch()
}

func (c *Client) finish(err error) {
	c.done = true
	c.timer.Stop()
	if err != nil {
		c.onDone(nil, err)
		return
	}
	c.onDone(c.records, nil)
}
