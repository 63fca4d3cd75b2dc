package wire

import (
	"encoding/binary"
	"fmt"
)

// Frame header: 4-byte body length followed by a 2-byte API key, after
// which the API-specific body follows. This mirrors Kafka's size-prefixed
// TCP framing and lets a byte-stream receiver split messages.
const frameHeaderSize = 6

// MaxFrameSize bounds a single frame; oversized frames are rejected as
// corrupt rather than allocating unbounded memory.
const MaxFrameSize = 16 << 20

// AppendFrame appends a framed copy of an encoded body to dst and returns
// the result. Senders that encode as they send use StartFrame/EndFrame,
// which skip the copy.
func AppendFrame(dst []byte, api uint16, body []byte) []byte {
	start := len(dst)
	dst = append(StartFrame(dst, api), body...)
	EndFrame(dst[start:])
	return dst
}

// StartFrame appends the header of an api frame whose length is not known
// yet, so a sender can encode the body straight after it — dst =
// EndFrame(req.Encode(StartFrame(dst[:0], api))) — instead of encoding
// into a scratch buffer and copying that into a frame.
func StartFrame(dst []byte, api uint16) []byte {
	dst = append(dst, 0, 0, 0, 0) // length, patched by EndFrame
	return binary.BigEndian.AppendUint16(dst, api)
}

// EndFrame patches the length of a frame begun by StartFrame; frame must
// start at that header and end with the last byte of the body.
func EndFrame(frame []byte) []byte {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

// FrameSize returns the total encoded size of a frame with the given body
// size, for senders that budget bytes before encoding.
func FrameSize(bodySize int) int { return frameHeaderSize + bodySize }

// Splitter incrementally splits a byte stream into frames. Feed it chunks
// in arrival order with Push; complete frames come back in order.
type Splitter struct {
	buf   []byte
	off   int         // bytes of buf consumed by previously returned frames
	parts []FramePart // reused backing array for Push results
}

// Push appends stream bytes and returns all frames completed by them.
//
// Ownership: frame bodies are zero-copy aliases into the splitter's
// internal buffer, which is REUSED — bodies (and anything decoded from
// them, such as record payloads) are valid only until the next Push.
// Consumers that retain decoded data across Pushes (in particular across
// simulated time) must deep-copy it first; see wire.Slab. The
// returned []FramePart slice itself is also reused by the next Push.
func (s *Splitter) Push(chunk []byte) ([]FramePart, error) {
	// Reclaim space consumed by frames returned from the previous Push.
	// A pending partial frame is moved to the front; it is at most one
	// chunk long (a partial following a consumed frame started inside the
	// last chunk), so the copy stays small, and a large frame arriving
	// alone accumulates with off == 0 and is never moved.
	if s.off > 0 {
		n := copy(s.buf, s.buf[s.off:])
		s.buf = s.buf[:n]
		s.off = 0
	}
	s.buf = append(s.buf, chunk...)
	out := s.parts[:0]
	for {
		b := s.buf[s.off:]
		if len(b) < 4 {
			s.parts = out
			return out, nil
		}
		size := int(binary.BigEndian.Uint32(b))
		if size < 2 || size > MaxFrameSize {
			s.parts = out
			return out, fmt.Errorf("frame size %d: %w", size, ErrBadFrame)
		}
		if len(b) < 4+size {
			s.parts = out
			return out, nil
		}
		api := binary.BigEndian.Uint16(b[4:])
		body := b[6 : 4+size : 4+size]
		s.off += 4 + size
		out = append(out, FramePart{API: api, Body: body})
	}
}

// FramePart is one complete frame split from a stream.
type FramePart struct {
	API  uint16
	Body []byte
}
