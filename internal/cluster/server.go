package cluster

import (
	"fmt"

	"kafkarel/internal/transport"
	"kafkarel/internal/wire"
)

// Server binds a cluster to the server side of a transport connection:
// it splits the inbound byte stream into frames, dispatches produce
// requests to the cluster, and writes their responses back. One Server
// serves one connection, as one Kafka broker socket does. Produce is the
// only exchange that crosses the emulated network: fetch and metadata
// are in-process calls into the cluster.
type Server struct {
	cluster  *Cluster
	ep       *transport.Endpoint
	splitter wire.Splitter
	dec      wire.Decoder
	// slab owns the stored copy of every produced payload.
	slab wire.Slab
	// frameBuf is the response-encoding scratch: a reply is encoded
	// straight after its frame header (Endpoint.Send copies it).
	frameBuf []byte
	// onProduce is reply, bound once so the per-request dispatch path
	// builds no response-callback closure.
	onProduce func(wire.ProduceResponse)
	// DroppedFrames counts undecodable requests and frames of any other
	// API (corrupt after transport reassembly should be impossible; this
	// guards protocol bugs).
	DroppedFrames uint64
}

// NewServer attaches a cluster to the endpoint and starts serving.
func NewServer(c *Cluster, ep *transport.Endpoint) (*Server, error) {
	if c == nil || ep == nil {
		return nil, fmt.Errorf("cluster: NewServer with nil cluster or endpoint")
	}
	s := &Server{cluster: c, ep: ep}
	s.onProduce = s.reply
	ep.OnReceive(s.onBytes)
	return s, nil
}

// ResetParser discards partial-frame state; call it when the underlying
// connection is reset so the new byte stream parses from a clean slate.
func (s *Server) ResetParser() { s.splitter = wire.Splitter{} }

func (s *Server) onBytes(chunk []byte) {
	frames, err := s.splitter.Push(chunk)
	if err != nil {
		// A framing error after reliable reassembly means a peer bug;
		// drop the connection's remaining input by resetting the
		// splitter.
		s.DroppedFrames++
		s.splitter = wire.Splitter{}
		return
	}
	for _, f := range frames {
		s.dispatch(f)
	}
}

func (s *Server) dispatch(f wire.FramePart) {
	if f.API != wire.APIProduce {
		s.DroppedFrames++
		return
	}
	req, err := s.dec.ProduceRequest(f.Body)
	if err != nil {
		s.DroppedFrames++
		return
	}
	// Interning hint: after the first request, topic strings decode
	// without allocating.
	if s.dec.Topic == "" {
		s.dec.Topic = req.Topic
	}
	// The splitter buffer and the decoder's record scratch are both
	// reused after this frame, so the batch gets its own storage here,
	// carved from the server's slab: headers, and one copy per run of
	// byte-equal payloads, since a payload equal to the last one
	// stored shares it. The leader log and every follower log
	// reference these records as they are (storage.Log.Append takes
	// ownership), so nothing downstream may write to the headers or
	// the bytes.
	req.Batch.Records = s.slab.Clone(req.Batch.Records)
	if req.Acks == wire.AcksNone {
		s.cluster.HandleProduce(req, nil)
		return
	}
	s.cluster.HandleProduce(req, s.onProduce)
}

// reply encodes a produce response straight after its frame header in
// the frame scratch and sends it.
func (s *Server) reply(resp wire.ProduceResponse) {
	s.frameBuf = wire.EndFrame(resp.Encode(wire.StartFrame(s.frameBuf[:0], wire.APIProduce)))
	// A broken server connection means the response is lost; the client's
	// request timeout covers it, exactly as with a dead TCP socket.
	_ = s.ep.Send(s.frameBuf)
}
