package wire

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func sampleBatch() RecordBatch {
	return RecordBatch{
		ProducerID:    7,
		ProducerEpoch: 3,
		BaseSequence:  100,
		Idempotent:    true,
		Transactional: true,
		Records: []Record{
			{Key: 1, Timestamp: time.Second, Payload: []byte("hello")},
			{Key: 2, Timestamp: 2 * time.Second, Payload: bytes.Repeat([]byte{0xAB}, 200)},
			{Key: 3, Timestamp: 0, Payload: nil},
		},
	}
}

func TestRecordBatchRoundTrip(t *testing.T) {
	b := sampleBatch()
	enc := b.Encode(nil)
	if len(enc) != b.EncodedSize() {
		t.Errorf("EncodedSize = %d, actual %d", b.EncodedSize(), len(enc))
	}
	got, rest, err := DecodeRecordBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("rest = %d bytes", len(rest))
	}
	if got.ProducerID != b.ProducerID || got.ProducerEpoch != b.ProducerEpoch ||
		got.BaseSequence != b.BaseSequence || got.Idempotent != b.Idempotent ||
		got.Transactional != b.Transactional || got.Control != b.Control {
		t.Errorf("header mismatch: %+v", got)
	}
	if len(got.Records) != len(b.Records) {
		t.Fatalf("records = %d, want %d", len(got.Records), len(b.Records))
	}
	for i := range b.Records {
		w, g := b.Records[i], got.Records[i]
		if g.Key != w.Key || g.Timestamp != w.Timestamp || !bytes.Equal(g.Payload, w.Payload) {
			t.Errorf("record %d: got %+v want %+v", i, g, w)
		}
	}
}

func TestRecordBatchCRCDetectsCorruption(t *testing.T) {
	enc := sampleBatch().Encode(nil)
	// Flip a record bit (after the 29-byte header).
	enc[35] ^= 0x01
	if _, _, err := DecodeRecordBatch(enc); !errors.Is(err, ErrBadCRC) {
		t.Errorf("err = %v, want ErrBadCRC", err)
	}
}

func TestRecordBatchShortBuffer(t *testing.T) {
	enc := sampleBatch().Encode(nil)
	for _, cut := range []int{0, 10, 23, 28, 34, len(enc) - 1} {
		if _, _, err := DecodeRecordBatch(enc[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

// A count field is hostile input like any other byte: a header-only
// message claiming 2³¹−1 records or partitions must fail as a short buffer
// having allocated next to nothing — sizing the slice from the claim asks
// the runtime for tens of gigabytes, which is fatal, not a panic.
func TestLyingCountFailsShortWithoutAllocating(t *testing.T) {
	for _, lc := range lyingCounts {
		t.Run(lc.target, func(t *testing.T) {
			decode := decodeTargets[targetIndex(lc.target)].decode
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := decode(t, nil, lc.input)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrShortBuffer) {
				t.Errorf("err = %v, want one wrapping ErrShortBuffer", err)
			}
			// The error values and the re-encoding the target makes, nothing
			// that scales with the claimed count.
			if got := after.TotalAlloc - before.TotalAlloc; got > 4096 {
				t.Errorf("decoding %d bytes allocated %d", len(lc.input), got)
			}
		})
	}
}

func TestEmptyBatchRoundTrip(t *testing.T) {
	b := RecordBatch{ProducerID: 1}
	got, rest, err := DecodeRecordBatch(b.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || len(got.Records) != 0 {
		t.Errorf("got %+v rest %d", got, len(rest))
	}
}

func TestProduceRequestRoundTrip(t *testing.T) {
	req := ProduceRequest{
		CorrelationID: 42,
		Topic:         "events",
		Partition:     2,
		Acks:          AcksAll,
		Batch:         sampleBatch(),
	}
	enc := req.Encode(nil)
	if len(enc) != req.EncodedSize() {
		t.Errorf("EncodedSize = %d, actual %d", req.EncodedSize(), len(enc))
	}
	got, err := (*Decoder)(nil).ProduceRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.CorrelationID != 42 || got.Topic != "events" || got.Partition != 2 || got.Acks != AcksAll {
		t.Errorf("got %+v", got)
	}
	if len(got.Batch.Records) != 3 {
		t.Errorf("batch records = %d", len(got.Batch.Records))
	}
	if _, err := (*Decoder)(nil).ProduceRequest(append(enc, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := (*Decoder)(nil).ProduceRequest(enc[:3]); err == nil {
		t.Error("truncated request accepted")
	}
}

func TestProduceResponseRoundTrip(t *testing.T) {
	resp := ProduceResponse{
		CorrelationID: 9,
		Topic:         "t",
		Partition:     1,
		BaseOffset:    123456,
		Err:           ErrRequestTimedOut,
	}
	enc := resp.Encode(nil)
	if len(enc) != resp.EncodedSize() {
		t.Errorf("EncodedSize = %d, actual %d", resp.EncodedSize(), len(enc))
	}
	got, err := (*Decoder)(nil).ProduceResponse(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Errorf("got %+v, want %+v", got, resp)
	}
	if _, err := (*Decoder)(nil).ProduceResponse(enc[:7]); err == nil {
		t.Error("truncated response accepted")
	}
}

func TestFetchRequestRoundTrip(t *testing.T) {
	req := FetchRequest{CorrelationID: 1, Topic: "x", Partition: 0, Offset: 555, MaxRecords: 100, Isolation: ReadCommitted}
	got, err := (*Decoder)(nil).FetchRequest(req.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Errorf("got %+v, want %+v", got, req)
	}
}

func TestFetchResponseRoundTrip(t *testing.T) {
	resp := FetchResponse{
		CorrelationID: 3,
		Topic:         "t",
		Partition:     1,
		HighWatermark: 99,
		NextOffset:    42,
		LastStable:    77,
		Err:           ErrNone,
		Records: []Record{
			{Key: 10, Timestamp: time.Millisecond, Payload: []byte("a")},
			{Key: 11, Timestamp: 2 * time.Millisecond, Payload: []byte("bb")},
		},
	}
	got, err := (*Decoder)(nil).FetchResponse(resp.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.HighWatermark != 99 || got.NextOffset != 42 || got.LastStable != 77 ||
		len(got.Records) != 2 || got.Records[1].Key != 11 {
		t.Errorf("got %+v", got)
	}
	enc := resp.Encode(nil)
	if _, err := (*Decoder)(nil).FetchResponse(enc[:len(enc)-1]); err == nil {
		t.Error("truncated response accepted")
	}
}

func TestMetadataRoundTrip(t *testing.T) {
	req := MetadataRequest{CorrelationID: 5, Topic: "logs"}
	gotReq, err := DecodeMetadataRequest(req.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if gotReq != req {
		t.Errorf("got %+v, want %+v", gotReq, req)
	}
	resp := MetadataResponse{
		CorrelationID: 5,
		Topic:         "logs",
		Partitions: []PartitionMetadata{
			{Partition: 0, Leader: 1, Replicas: []int32{1, 2, 3}},
			{Partition: 1, Leader: 2, Replicas: []int32{2, 3}},
		},
	}
	gotResp, err := DecodeMetadataResponse(resp.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotResp, resp) {
		t.Errorf("got %+v, want %+v", gotResp, resp)
	}
}

func TestErrorCodeStringsAndRetriable(t *testing.T) {
	if ErrNone.String() != "NONE" || ErrorCode(200).String() != "ERROR_200" {
		t.Error("String() wrong")
	}
	retriable := []ErrorCode{ErrNotLeader, ErrRequestTimedOut, ErrBrokerUnavailable, ErrNotEnoughReplicas}
	for _, e := range retriable {
		if !e.Retriable() {
			t.Errorf("%v not retriable", e)
		}
	}
	for _, e := range []ErrorCode{ErrNone, ErrCorruptMessage, ErrDuplicateSequence, ErrUnknownTopicOrPartition} {
		if e.Retriable() {
			t.Errorf("%v retriable", e)
		}
	}
}

func TestAcksString(t *testing.T) {
	cases := map[RequiredAcks]string{
		AcksNone: "acks=0", AcksLeader: "acks=1", AcksAll: "acks=all", 5: "acks=5",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestFrameRoundTripViaSplitter(t *testing.T) {
	body1 := []byte("first")
	body2 := []byte("second body")
	stream := append(EncodeFrame(APIProduce, body1), EncodeFrame(APIFetch, body2)...)
	var s Splitter
	var frames []FramePart
	// Feed one byte at a time to exercise partial-frame buffering.
	for _, c := range stream {
		got, err := s.Push([]byte{c})
		if err != nil {
			t.Fatal(err)
		}
		// Bodies alias the splitter's reused buffer and are only valid
		// until the next Push; copy them to retain.
		for _, fr := range got {
			fr.Body = append([]byte(nil), fr.Body...)
			frames = append(frames, fr)
		}
	}
	if len(frames) != 2 {
		t.Fatalf("frames = %d, want 2", len(frames))
	}
	if frames[0].API != APIProduce || !bytes.Equal(frames[0].Body, body1) {
		t.Errorf("frame 0 = %+v", frames[0])
	}
	if frames[1].API != APIFetch || !bytes.Equal(frames[1].Body, body2) {
		t.Errorf("frame 1 = %+v", frames[1])
	}
	if s.Buffered() != 0 {
		t.Errorf("Buffered = %d, want 0", s.Buffered())
	}
}

func TestSplitterRejectsBadSize(t *testing.T) {
	var s Splitter
	if _, err := s.Push([]byte{0, 0, 0, 1, 0}); err == nil { // size 1 < 2
		t.Error("undersized frame accepted")
	}
	var s2 Splitter
	if _, err := s2.Push([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestFrameSize(t *testing.T) {
	body := []byte("abc")
	if got := len(EncodeFrame(0, body)); got != FrameSize(len(body)) {
		t.Errorf("FrameSize = %d, actual %d", FrameSize(len(body)), got)
	}
}

// ProduceFrameSize is what a producer admits a request to its socket at
// before building it, so it must be the framed encoding's length exactly,
// and the frame StartFrame/EndFrame encode in place must be the one
// AppendFrame wraps around a separately encoded body: random requests of
// 0-64 records, each payload empty or 4 KB, topics of 0-300 bytes.
func TestProduceFrameSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 1))
	payloads := [][]byte{nil, bytes.Repeat([]byte{0x5A}, 4096)}
	var inPlace []byte
	for i := 0; i < 500; i++ {
		req := ProduceRequest{
			CorrelationID: rng.Uint32(),
			Topic:         string(bytes.Repeat([]byte{'t'}, rng.IntN(301))),
			Partition:     rng.Int32(),
			Acks:          RequiredAcks(rng.IntN(3) - 1),
			Batch:         RecordBatch{ProducerID: rng.Uint64(), BaseSequence: rng.Uint64(), Idempotent: rng.IntN(2) == 0},
		}
		payloadBytes := 0
		for n := rng.IntN(65); n > 0; n-- {
			p := payloads[rng.IntN(2)]
			payloadBytes += len(p)
			req.Batch.Records = append(req.Batch.Records, Record{Key: rng.Uint64(), Timestamp: time.Duration(rng.Int64()), Payload: p})
		}
		framed := AppendFrame(nil, APIProduce, req.Encode(nil))
		if got := ProduceFrameSize(len(req.Topic), len(req.Batch.Records), payloadBytes); got != len(framed) {
			t.Fatalf("request %d (topic %d bytes, %d records, %d payload bytes): ProduceFrameSize = %d, framed %d",
				i, len(req.Topic), len(req.Batch.Records), payloadBytes, got, len(framed))
		}
		inPlace = EndFrame(req.Encode(StartFrame(inPlace[:0], APIProduce)))
		if !bytes.Equal(inPlace, framed) {
			t.Fatalf("request %d: StartFrame/EndFrame encoding differs from AppendFrame's", i)
		}
	}
}

// Property: any batch of random records round-trips exactly, across
// every combination of the header flags (Idempotent, Transactional,
// Control) and any producer epoch.
func TestPropertyBatchRoundTrip(t *testing.T) {
	f := func(seed uint64, n, flagBits uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		b := RecordBatch{
			ProducerID:    rng.Uint64(),
			ProducerEpoch: rng.Uint32(),
			BaseSequence:  rng.Uint64(),
			Idempotent:    flagBits&1 != 0,
			Transactional: flagBits&2 != 0,
			Control:       flagBits&4 != 0,
		}
		count := int(n % 20)
		for i := 0; i < count; i++ {
			payload := make([]byte, rng.IntN(300))
			for j := range payload {
				payload[j] = byte(rng.UintN(256))
			}
			b.Records = append(b.Records, Record{
				Key:       rng.Uint64(),
				Timestamp: time.Duration(rng.Int64N(1e15)),
				Payload:   payload,
			})
		}
		got, rest, err := DecodeRecordBatch(b.Encode(nil))
		if err != nil || len(rest) != 0 {
			return false
		}
		if got.ProducerID != b.ProducerID || got.ProducerEpoch != b.ProducerEpoch ||
			got.BaseSequence != b.BaseSequence || got.Idempotent != b.Idempotent ||
			got.Transactional != b.Transactional || got.Control != b.Control ||
			len(got.Records) != len(b.Records) {
			return false
		}
		for i := range b.Records {
			if got.Records[i].Key != b.Records[i].Key ||
				got.Records[i].Timestamp != b.Records[i].Timestamp ||
				!bytes.Equal(got.Records[i].Payload, b.Records[i].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: splitting any concatenation of frames at arbitrary chunk
// boundaries yields the original frames.
func TestPropertySplitterChunking(t *testing.T) {
	f := func(seed uint64, nFrames, chunkHint uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		count := int(nFrames%8) + 1
		var stream []byte
		var bodies [][]byte
		for i := 0; i < count; i++ {
			body := make([]byte, rng.IntN(100))
			for j := range body {
				body[j] = byte(rng.UintN(256))
			}
			bodies = append(bodies, body)
			stream = append(stream, EncodeFrame(uint16(i), body)...)
		}
		var s Splitter
		var frames []FramePart
		chunk := int(chunkHint%16) + 1
		for off := 0; off < len(stream); off += chunk {
			end := off + chunk
			if end > len(stream) {
				end = len(stream)
			}
			got, err := s.Push(stream[off:end])
			if err != nil {
				return false
			}
			for _, fr := range got {
				fr.Body = append([]byte(nil), fr.Body...)
				frames = append(frames, fr)
			}
		}
		if len(frames) != count {
			return false
		}
		for i, fr := range frames {
			if fr.API != uint16(i) || !bytes.Equal(fr.Body, bodies[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBatchEncode(b *testing.B) {
	batch := sampleBatch()
	buf := make([]byte, 0, batch.EncodedSize())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = batch.Encode(buf[:0])
	}
}

func BenchmarkBatchDecode(b *testing.B) {
	enc := sampleBatch().Encode(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRecordBatch(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// Allocation budget (issue 5): once a Decoder's scratch is warm and its
// Topic hint matches, decoding a produce request — record batch
// included — allocates nothing: topic strings intern against the hint,
// records land in the reused scratch slice, and payloads alias the
// source buffer.
func TestDecoderSteadyStateAllocs(t *testing.T) {
	req := ProduceRequest{
		CorrelationID: 42,
		Topic:         "events",
		Partition:     1,
		Acks:          AcksLeader,
		Batch:         sampleBatch(),
	}
	enc := req.Encode(nil)
	d := &Decoder{Topic: "events"}
	if _, err := d.ProduceRequest(enc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		got, err := d.ProduceRequest(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Batch.Records) != 3 {
			t.Fatalf("%d records", len(got.Batch.Records))
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state produce decode allocated %.1f per request, want 0", allocs)
	}
}

// Slab.Clone must sever every alias into the decode source: after
// cloning, scribbling over the source buffer cannot reach the records.
func TestCloneRecordsSeversSourceAliases(t *testing.T) {
	enc := sampleBatch().Encode(nil)
	batch, _, err := DecodeRecordBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	var slab Slab
	cloned := slab.Clone(batch.Records)
	want := make([][]byte, len(cloned))
	for i, r := range cloned {
		want[i] = append([]byte(nil), r.Payload...)
	}
	for i := range enc {
		enc[i] = 0xFF
	}
	for i, r := range cloned {
		if !bytes.Equal(r.Payload, want[i]) {
			t.Errorf("record %d payload corrupted by source mutation: %x", i, r.Payload)
		}
	}
}
