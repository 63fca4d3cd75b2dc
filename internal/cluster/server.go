package cluster

import (
	"fmt"

	"kafkarel/internal/transport"
	"kafkarel/internal/wire"
)

// Server binds a cluster to the server side of a transport connection:
// it splits the inbound byte stream into frames, dispatches requests to
// the cluster, and writes responses back. One Server serves one
// connection, as one Kafka broker socket does.
type Server struct {
	cluster  *Cluster
	ep       *transport.Endpoint
	splitter wire.Splitter
	dec      wire.Decoder
	// slab owns the one copy every produced batch gets.
	slab     wire.Slab
	bodyBuf  []byte // response-encoding scratch
	frameBuf []byte // frame-encoding scratch; Endpoint.Send copies
	// onProduce and onFetch are created once so the per-request dispatch
	// path builds no response-callback closures.
	onProduce func(wire.ProduceResponse)
	onFetch   func(wire.FetchResponse)
	// DroppedFrames counts undecodable requests (corrupt after transport
	// reassembly should be impossible; this guards protocol bugs).
	DroppedFrames uint64
}

// NewServer attaches a cluster to the endpoint and starts serving.
func NewServer(c *Cluster, ep *transport.Endpoint) (*Server, error) {
	if c == nil || ep == nil {
		return nil, fmt.Errorf("cluster: NewServer with nil cluster or endpoint")
	}
	s := &Server{cluster: c, ep: ep}
	s.onProduce = func(resp wire.ProduceResponse) {
		s.bodyBuf = resp.Encode(s.bodyBuf[:0])
		s.reply(wire.APIProduce, s.bodyBuf)
	}
	s.onFetch = func(resp wire.FetchResponse) {
		s.bodyBuf = resp.Encode(s.bodyBuf[:0])
		s.reply(wire.APIFetch, s.bodyBuf)
	}
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
	switch f.API {
	case wire.APIProduce:
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
		// carved from the server's slab. This is the only copy a produced
		// payload ever gets: the leader log and every follower log store
		// these bytes as they are (storage.Log.Append takes ownership), so
		// nothing downstream may write to them.
		req.Batch.Records = s.slab.Clone(req.Batch.Records)
		if req.Acks == wire.AcksNone {
			s.cluster.HandleProduce(req, nil)
			return
		}
		s.cluster.HandleProduce(req, s.onProduce)
	case wire.APIFetch:
		req, err := s.dec.FetchRequest(f.Body)
		if err != nil {
			s.DroppedFrames++
			return
		}
		// Fetch handling is synchronous and the response is encoded into
		// the reply scratch inside the callback, so the broker's reused
		// record scratch is never retained.
		s.cluster.HandleFetch(req, s.onFetch)
	case wire.APIMetadata:
		req, err := wire.DecodeMetadataRequest(f.Body)
		if err != nil {
			s.DroppedFrames++
			return
		}
		resp := s.cluster.Metadata(req)
		s.bodyBuf = resp.Encode(s.bodyBuf[:0])
		s.reply(wire.APIMetadata, s.bodyBuf)
	default:
		s.DroppedFrames++
	}
}

func (s *Server) reply(api uint16, body []byte) {
	// A broken server connection means the response is lost; the client's
	// request timeout covers it, exactly as with a dead TCP socket.
	s.frameBuf = wire.AppendFrame(s.frameBuf[:0], api, body)
	_ = s.ep.Send(s.frameBuf)
}
