package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

// The native fuzz targets of the byte-level protocol: the frame splitter,
// the seven decoders that exist, and Slab.Clone. Their seed corpora — f.Add
// below plus any crasher committed under testdata/fuzz/ — run as ordinary
// tests in `go test`; `make fuzz-smoke` mutates each for a few seconds.

// decodeTarget is one decoder under FuzzDecode. decode parses b through d
// (nil, or a primed per-connection decoder) and returns how many bytes the
// message took and its re-encoding; for a nil d it also checks that no
// slice it allocated has room for more elements than b could have held.
type decodeTarget struct {
	name   string
	valid  [][]byte // valid encodings: the seeds, walked at every truncation
	decode func(t *testing.T, d *Decoder, b []byte) (consumed int, reenc []byte, err error)
}

// capWithin fails when a decoder allocated c elements of at least elemSize
// wire bytes each out of an n-byte input that cannot hold that many.
func capWithin(t *testing.T, what string, c, n, elemSize int) {
	t.Helper()
	if c > n/elemSize {
		t.Fatalf("%s: capacity %d from a %d-byte input that holds at most %d", what, c, n, n/elemSize)
	}
}

var decodeTargets = func() []decodeTarget {
	batches := [][]byte{sampleBatch().Encode(nil), RecordBatch{}.Encode(nil)}
	for flagBits := uint32(0); flagBits < 8; flagBits++ {
		batches = append(batches, RecordBatch{
			ProducerID:    9,
			ProducerEpoch: flagBits,
			BaseSequence:  1 << 40,
			Idempotent:    flagBits&1 != 0,
			Transactional: flagBits&2 != 0,
			Control:       flagBits&4 != 0,
			Records:       []Record{{Key: 5, Timestamp: time.Millisecond, Payload: []byte("pay")}},
		}.Encode(nil))
	}
	fetched := FetchResponse{
		CorrelationID: 3, Topic: "events", Partition: 1, HighWatermark: 99, NextOffset: 42, LastStable: 77,
		Records: sampleBatch().Records,
	}
	metadata := MetadataResponse{
		CorrelationID: 5, Topic: "logs",
		Partitions: []PartitionMetadata{
			{Partition: 0, Leader: 1, Replicas: []int32{1, 2, 3}},
			{Partition: 1, Leader: -1},
		},
	}
	return []decodeTarget{
		{
			name:  "ProduceRequest",
			valid: [][]byte{validProduceRequest, ProduceRequest{Topic: "other", Acks: AcksAll}.Encode(nil)},
			decode: func(t *testing.T, d *Decoder, b []byte) (int, []byte, error) {
				r, err := d.ProduceRequest(b)
				if d == nil {
					capWithin(t, "produce records", cap(r.Batch.Records), len(b), minRecordSize)
				}
				return len(b), r.Encode(nil), err
			},
		},
		{
			name: "ProduceResponse",
			valid: [][]byte{
				ProduceResponse{CorrelationID: 9, Topic: "events", Partition: 1, BaseOffset: 123456, Err: ErrRequestTimedOut}.Encode(nil),
			},
			decode: func(t *testing.T, d *Decoder, b []byte) (int, []byte, error) {
				r, err := d.ProduceResponse(b)
				return len(b), r.Encode(nil), err
			},
		},
		{
			name: "FetchRequest",
			valid: [][]byte{
				FetchRequest{CorrelationID: 1, Topic: "x", Offset: 555, MaxRecords: 100, Isolation: ReadCommitted}.Encode(nil),
			},
			decode: func(t *testing.T, d *Decoder, b []byte) (int, []byte, error) {
				r, err := d.FetchRequest(b)
				return len(b), r.Encode(nil), err
			},
		},
		{
			name:  "FetchResponse",
			valid: [][]byte{fetched.Encode(nil), FetchResponse{Topic: "t", Err: ErrNotLeader}.Encode(nil)},
			decode: func(t *testing.T, d *Decoder, b []byte) (int, []byte, error) {
				r, err := d.FetchResponse(b)
				if d == nil {
					capWithin(t, "fetch records", cap(r.Records), len(b), minRecordSize)
				}
				return len(b), r.Encode(nil), err
			},
		},
		{
			name:  "MetadataRequest",
			valid: [][]byte{MetadataRequest{CorrelationID: 5, Topic: "logs"}.Encode(nil)},
			decode: func(t *testing.T, _ *Decoder, b []byte) (int, []byte, error) {
				r, err := DecodeMetadataRequest(b)
				return len(b), r.Encode(nil), err
			},
		},
		{
			name:  "MetadataResponse",
			valid: [][]byte{metadata.Encode(nil), MetadataResponse{Topic: "ghost", Err: ErrUnknownTopicOrPartition}.Encode(nil)},
			decode: func(t *testing.T, _ *Decoder, b []byte) (int, []byte, error) {
				r, err := DecodeMetadataResponse(b)
				capWithin(t, "metadata partitions", cap(r.Partitions), len(b), 12)
				for _, p := range r.Partitions {
					capWithin(t, "metadata replicas", cap(p.Replicas), len(b), 4)
				}
				return len(b), r.Encode(nil), err
			},
		},
		{
			name:  "RecordBatch",
			valid: batches,
			decode: func(t *testing.T, d *Decoder, b []byte) (int, []byte, error) {
				r, rest, err := d.recordBatch(b)
				if d == nil {
					capWithin(t, "batch records", cap(r.Records), len(b), minRecordSize)
				}
				return len(b) - len(rest), r.Encode(nil), err
			},
		},
	}
}()

var validProduceRequest = ProduceRequest{
	CorrelationID: 42, Topic: "events", Partition: 2, Acks: AcksAll, Batch: sampleBatch(),
}.Encode(nil)

// lyingCount is a header-only message whose count field claims 2³¹−1
// elements; there is one per decoder that preallocates from a count it read.
type lyingCount struct {
	target string // decodeTarget name
	input  []byte
}

var lyingCounts = func() []lyingCount {
	lie := func(enc []byte, countAt int) []byte {
		binary.BigEndian.PutUint32(enc[countAt:], 1<<31-1)
		return enc
	}
	fetch := FetchResponse{Topic: "t"}.Encode(nil)
	metadata := MetadataResponse{Topic: "t"}.Encode(nil)
	return []lyingCount{
		{"RecordBatch", lie(RecordBatch{}.Encode(nil), 21)},
		{"FetchResponse", lie(fetch, len(fetch)-4)},
		{"MetadataResponse", lie(metadata, len(metadata)-4)},
	}
}()

func targetIndex(name string) int {
	for i, tg := range decodeTargets {
		if tg.name == name {
			return i
		}
	}
	panic("no decode target " + name)
}

// FuzzDecode hands arbitrary bytes to one of the seven decoders. None may
// panic or allocate beyond what its input could hold; the nil decoder and a
// primed one must agree; every error is one of the three decoding errors;
// what decodes re-encodes to exactly the bytes consumed (one spelling per
// message); and, the formats being self-delimiting, no strict prefix of
// what decoded may decode too — so seeding every cut of a valid encoding
// walks every truncation of it.
func FuzzDecode(f *testing.F) {
	for kind, tg := range decodeTargets {
		for _, enc := range tg.valid {
			for cut := range enc {
				f.Add(uint8(kind), enc, uint16(cut))
			}
			f.Add(uint8(kind), append(bytes.Clone(enc), 0), uint16(0))
		}
	}
	for _, lc := range lyingCounts {
		f.Add(uint8(targetIndex(lc.target)), lc.input, uint16(0))
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte, cut uint16) {
		tg := decodeTargets[int(kind)%len(decodeTargets)]
		consumed, reenc, err := tg.decode(t, nil, data)

		primed := &Decoder{Topic: "events"}
		if _, err := primed.ProduceRequest(validProduceRequest); err != nil {
			t.Fatal(err)
		}
		pConsumed, pReenc, pErr := tg.decode(t, primed, data)
		if (err == nil) != (pErr == nil) {
			t.Fatalf("%s: nil decoder says %v, primed decoder says %v", tg.name, err, pErr)
		}
		if err != nil {
			if !errors.Is(err, ErrShortBuffer) && !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrBadCRC) {
				t.Fatalf("%s: error %q wraps none of the decoding errors", tg.name, err)
			}
			return
		}
		if pConsumed != consumed || !bytes.Equal(pReenc, reenc) {
			t.Fatalf("%s: nil and primed decoders decoded different messages", tg.name)
		}
		if !bytes.Equal(reenc, data[:consumed]) {
			t.Fatalf("%s: decoded %x but re-encodes to %x", tg.name, data[:consumed], reenc)
		}
		prefix := data[:int(cut)%consumed]
		if _, _, err := tg.decode(t, nil, prefix); err == nil {
			t.Fatalf("%s: %d-byte prefix of a valid %d-byte encoding decodes too", tg.name, len(prefix), consumed)
		}
	})
}

// FuzzSplitter pushes arbitrary bytes in arbitrary chunks (each byte of
// chunking is the next chunk's length, cycled; zero-length pushes
// included). The splitter may not panic or buffer more than it was given,
// and up to the first ErrBadFrame it must return exactly the frames one
// whole push returns.
func FuzzSplitter(f *testing.F) {
	var stream []byte
	for i, body := range [][]byte{[]byte("first"), nil, bytes.Repeat([]byte{7}, 300), validProduceRequest} {
		stream = append(stream, EncodeFrame(uint16(i), body)...)
	}
	badSize := append(bytes.Clone(stream), 0, 0, 0, 1, 0xFF) // a frame too short to hold its API key
	for _, s := range [][]byte{stream, badSize, stream[:len(stream)-1], {0xFF, 0xFF, 0xFF, 0xFF}, nil} {
		for _, chunking := range [][]byte{nil, {1}, {3, 0, 5}, {6}, {255, 1}} {
			f.Add(s, chunking)
		}
	}
	type frame struct {
		api  uint16
		body []byte
	}
	// collect copies the frames out: their bodies are valid only until the next Push.
	collect := func(dst []frame, parts []FramePart) []frame {
		for _, p := range parts {
			dst = append(dst, frame{p.API, bytes.Clone(p.Body)})
		}
		return dst
	}
	f.Fuzz(func(t *testing.T, data, chunking []byte) {
		var whole Splitter
		parts, wantErr := whole.Push(data)
		want := collect(nil, parts)
		if wantErr != nil && !errors.Is(wantErr, ErrBadFrame) {
			t.Fatalf("whole push: error %q does not wrap ErrBadFrame", wantErr)
		}

		var s Splitter
		var got []frame
		var gotErr error
		pushed, framed := 0, 0
		for i, rest := 0, data; gotErr == nil && (i == 0 || len(rest) > 0); i++ {
			n := len(rest)
			if len(chunking) > 0 {
				n = int(chunking[i%len(chunking)])
				if i >= len(chunking) {
					n = max(n, 1) // empty pushes on the first cycle only, so the stream ends
				}
				n = min(n, len(rest))
			}
			parts, gotErr = s.Push(rest[:n])
			rest = rest[n:]
			pushed += n
			got = collect(got, parts)
			for _, p := range parts {
				framed += frameHeaderSize + len(p.Body)
			}
			if s.Buffered() != pushed-framed {
				t.Fatalf("after %d bytes pushed and %d returned as frames the splitter buffers %d", pushed, framed, s.Buffered())
			}
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("chunked pushes end with %v, one whole push with %v", gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("chunked pushes returned %d frames, one whole push %d", len(got), len(want))
		}
		for i := range want {
			if got[i].api != want[i].api || !bytes.Equal(got[i].body, want[i].body) {
				t.Fatalf("frame %d differs between chunked pushes and one whole push", i)
			}
		}
	})
}

// FuzzSlabClone clones records whose payload sizes are read two bytes at a
// time from shape, perBatch records per Clone call, into one slab — sizes
// up to 64 KiB, so both sides of every chunk doubling from 1 KiB to the
// 32 KiB ceiling and the oversized-payload path are reachable. The size
// 0xFFFF instead marks a record whose payload repeats the previous
// record's bytes in a fresh source slice. Each clone must equal its source,
// share no storage with it and have no spare capacity to append into; a
// non-empty clone equal to the slab's previous clone must share that
// clone's bytes, and clones of different content must share nothing.
func FuzzSlabClone(f *testing.F) {
	const rep = 0xFFFF // repeat the previous record's bytes
	sizes := func(ns ...int) []byte {
		var b []byte
		for _, n := range ns {
			b = binary.BigEndian.AppendUint16(b, uint16(n))
		}
		return b
	}
	f.Add(sizes(), uint8(0))
	f.Add(sizes(0, 0, 0), uint8(2))
	f.Add(sizes(0, rep, 5, 0, rep, rep), uint8(1)) // an empty record between two equal ones
	for chunk := slabMinBytes; chunk <= slabMaxBytes; chunk *= 2 {
		f.Add(sizes(chunk-1, 1, 1, chunk, chunk+1, 3), uint8(0))
		f.Add(sizes(chunk/2, chunk/2, 1, chunk-1, 2), uint8(1))
		f.Add(sizes(chunk/3, chunk/3, chunk/3, chunk/3), uint8(3))
		f.Add(sizes(chunk/3, rep, rep, rep, 7, rep, chunk/3, rep), uint8(2))
	}
	f.Add(sizes(slabMaxBytes+1, 10, 65534, 10), uint8(0))
	f.Add(sizes(slabMaxBytes+1, rep, 10, rep, rep), uint8(4))
	f.Add(bytes.Repeat(sizes(100), 40), uint8(16)) // more headers than the first header chunk holds
	f.Add(append(sizes(100), bytes.Repeat(sizes(rep), 39)...), uint8(16))
	f.Fuzz(func(t *testing.T, shape []byte, perBatch uint8) {
		const maxRecords = 48 // × 64 KiB bounds a case at 3 MiB
		var slab Slab
		var sources, clones [][]Record
		var pristine [][]byte // every source payload, as generated
		var prev []byte
		for key := uint64(0); len(shape) >= 2 && key < maxRecords; {
			var src []Record
			for i := 0; i <= int(perBatch%17) && len(shape) >= 2 && key < maxRecords; i++ {
				payload := append([]byte(nil), prev...)
				if n := int(binary.BigEndian.Uint16(shape)); n != rep {
					payload = bytes.Repeat([]byte{byte(key)}, n)
				}
				src = append(src, Record{Key: key, Timestamp: time.Duration(key) * time.Millisecond, Payload: payload})
				pristine = append(pristine, append([]byte(nil), payload...))
				prev = payload
				shape = shape[2:]
				key++
			}
			sources = append(sources, src)
			clones = append(clones, slab.Clone(src))
		}
		var last []byte // the previous non-empty clone
		for b, src := range sources {
			if len(clones[b]) != len(src) || cap(clones[b]) != len(src) {
				t.Fatalf("batch %d: clone has len %d cap %d, source %d records", b, len(clones[b]), cap(clones[b]), len(src))
			}
			for i, r := range src {
				c := clones[b][i]
				if c.Key != r.Key || c.Timestamp != r.Timestamp || !bytes.Equal(c.Payload, r.Payload) {
					t.Fatalf("batch %d record %d: clone differs from source", b, i)
				}
				if cap(c.Payload) != len(c.Payload) {
					t.Fatalf("batch %d record %d: payload len %d cap %d, appending would write into the slab", b, i, len(c.Payload), cap(c.Payload))
				}
				if len(c.Payload) == 0 {
					continue
				}
				if bytes.Equal(c.Payload, last) && &c.Payload[0] != &last[0] {
					t.Fatalf("batch %d record %d: a copy of its equal predecessor, not that clone's bytes", b, i)
				}
				last = c.Payload
			}
		}
		// Sharing shows as damage: overwrite every clone header, and every
		// distinct stored payload, with a value of its own, then look at
		// what the sources and the clones hold. Fill values start at 100,
		// above every source byte (a key below maxRecords).
		fill := map[*byte]byte{}
		for _, cl := range clones {
			for i := range cl {
				cl[i].Key += 1000
				p := cl[i].Payload
				if len(p) == 0 {
					continue
				}
				if _, ok := fill[&p[0]]; !ok {
					fill[&p[0]] = byte(100 + len(fill))
					for j := range p {
						p[j] = fill[&p[0]]
					}
				}
			}
		}
		filled := func(p []byte, v byte) bool { return bytes.Equal(p, bytes.Repeat([]byte{v}, len(p))) }
		key := uint64(0)
		for b := range sources {
			for i, r := range sources[b] {
				if r.Key != key || !bytes.Equal(r.Payload, pristine[key]) {
					t.Fatalf("batch %d record %d: writing to the clones changed the source", b, i)
				}
				c := clones[b][i]
				if c.Key != key+1000 || len(c.Payload) > 0 && !filled(c.Payload, fill[&c.Payload[0]]) {
					t.Fatalf("batch %d record %d: the clone was overwritten through a clone of other content", b, i)
				}
				key++
			}
		}
	})
}
