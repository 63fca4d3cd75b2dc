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

// EncodeFrame wraps an encoded body in a frame header.
func EncodeFrame(api uint16, body []byte) []byte {
	return AppendFrame(make([]byte, 0, frameHeaderSize+len(body)), api, body)
}

// AppendFrame appends a framed body to dst and returns the result, so
// hot-path senders can reuse one frame buffer across sends instead of
// allocating per frame.
func AppendFrame(dst []byte, api uint16, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)+2))
	dst = binary.BigEndian.AppendUint16(dst, api)
	return append(dst, body...)
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

// Buffered returns the number of bytes waiting for frame completion.
func (s *Splitter) Buffered() int { return len(s.buf) - s.off }

// FramePart is one complete frame split from a stream.
type FramePart struct {
	API  uint16
	Body []byte
}
