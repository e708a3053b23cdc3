package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// roundTrip encodes f, re-reads it through the stream layer, and returns
// the decoded frame.
func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatalf("WriteFrame(%v): %v", f.Type, err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame(%v): %v", f.Type, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("ReadFrame left %d bytes unread", buf.Len())
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	stats := NodeStats{
		BlocksOwned: 12, BlocksDone: 11, Flops: 1 << 40, Steals: 7,
		BytesSent: 123456, BytesRecv: 654321, Failovers: 2,
		DeadlineAborts: 3,
	}
	frames := []Frame{
		{Type: THello, Hello: &Hello{ID: "node-a", DataAddr: "127.0.0.1:9001", Speed: 0.5}},
		{Type: THeartbeat, Heartbeat: &Heartbeat{Stats: stats}},
		{Type: TStartJob, StartJob: &StartJob{
			JobID: "ab12cd", RunID: 3, Epoch: 1,
			N: 4, ColPtr: []uint32{0, 2, 3, 4, 5}, RowInd: []uint32{0, 2, 1, 2, 3},
			Val:       []float64{4, -1, 3, 2.5, 1},
			BlockSize: 32, Blocking: 1, Ordering: 2, Exec: 1, AmalgThr: 0.125,
			Procs: 8, NodeOf: []uint16{0, 1, 2, 3, 0, 1, 2, 3},
			Participants: []Participant{
				{ID: "a", DataAddr: "127.0.0.1:9001", Alive: true},
				{ID: "b", DataAddr: "127.0.0.1:9002", Alive: false},
			},
			Primary: 1, Replicas: []uint16{0}, Frontier: 17,
			Tenant: "team-solvers", DeadlineUnixMicro: 1_700_000_000_123_456,
		}},
		{Type: TAbort, Abort: &Abort{JobID: "ab12cd", RunID: 3, Epoch: 1, Reason: "peer died"}},
		{Type: TBlockData, BlockData: &BlockData{
			JobID: "ab12cd", RunID: 3, Epoch: 2, Block: 41,
			Data: []float64{1, -2.5, math.Pi, 0, math.Inf(1)},
		}},
		{Type: TDone, Done: &Done{
			JobID: "ab12cd", RunID: 3, Epoch: 2, OK: false,
			Err: "pivot failure", HasPivot: true, PivotBlock: 9, PivotRow: 4,
			Pivot: -1e-30, Watermark: 23, Stats: stats,
		}},
		{Type: TFactorReady, FactorReady: &FactorReady{JobID: "ab12cd", RunID: 3}},
		{Type: TSolveReq, SolveReq: &SolveReq{Seq: 99, JobID: "ab12cd", B: []float64{1, 2, 3, 4}}},
		{Type: TSolveResp, SolveResp: &SolveResp{Seq: 99, OK: true, X: []float64{0.25, 0.5, 1, 2}}},
	}
	for _, f := range frames {
		got := roundTrip(t, f)
		if !reflect.DeepEqual(got, f) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", f.Type, got, f)
		}
	}
}

func TestRoundTripEmptySlices(t *testing.T) {
	// nil and empty slices both decode to nil; encode a frame with nil
	// slices and confirm it survives.
	f := Frame{Type: TStartJob, StartJob: &StartJob{JobID: "x"}}
	got := roundTrip(t, f)
	if !reflect.DeepEqual(got, f) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got.StartJob, f.StartJob)
	}
}

func TestReadFrameEOFAtBoundary(t *testing.T) {
	_, err := ReadFrame(bytes.NewReader(nil))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

func TestReadFrameBadMagic(t *testing.T) {
	_, err := ReadFrame(bytes.NewReader([]byte{0x00, Version, byte(THello), 0, 0, 0, 0}))
	if !errors.Is(err, ErrMagic) {
		t.Fatalf("got %v, want ErrMagic", err)
	}
}

// TestReadFrameVersionMismatch: a peer one version ahead or behind (the
// v4 StartJob still carried the tuned-map fields) is refused by header.
func TestReadFrameVersionMismatch(t *testing.T) {
	for _, v := range []byte{Version - 1, Version + 1} {
		_, err := ReadFrame(bytes.NewReader([]byte{Magic, v, byte(THello), 0, 0, 0, 0}))
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: got %v, want ErrVersion", v, err)
		}
	}
}

func TestReadFrameOversizedLength(t *testing.T) {
	hdr := []byte{Magic, Version, byte(TBlockData), 0xFF, 0xFF, 0xFF, 0xFF}
	_, err := ReadFrame(bytes.NewReader(hdr))
	if err == nil {
		t.Fatal("oversized payload length accepted")
	}
}

func TestDecodeUnknownType(t *testing.T) {
	if _, err := Decode(Type(200), nil); err == nil {
		t.Fatal("unknown frame type accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	b, err := Encode(Frame{Type: TDone, Done: &Done{JobID: "job", Err: "boom"}})
	if err != nil {
		t.Fatal(err)
	}
	payload := b[7:]
	for cut := 0; cut < len(payload); cut++ {
		if _, err := Decode(TDone, payload[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(payload))
		}
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	b, err := Encode(Frame{Type: TFactorReady, FactorReady: &FactorReady{JobID: "j", RunID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(TFactorReady, append(b[7:], 0xAA)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeHostileLength(t *testing.T) {
	// A u32 count far larger than the remaining payload must be rejected
	// before any allocation of that size.
	body := []byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3}
	if _, err := Decode(TSolveReq, body); err == nil {
		t.Fatal("hostile length prefix accepted")
	}
}

func TestEncodeUnknownOrMissingPayload(t *testing.T) {
	if _, err := Encode(Frame{Type: Type(250)}); err == nil {
		t.Fatal("unknown type encoded")
	}
	if _, err := Encode(Frame{Type: THello}); err == nil {
		t.Fatal("nil payload encoded")
	}
}

func TestStreamedSequence(t *testing.T) {
	// Several frames back to back over one buffer, as on a TCP conn.
	var buf bytes.Buffer
	want := []Frame{
		{Type: THello, Hello: &Hello{ID: "n0", DataAddr: "addr", Speed: 1}},
		{Type: TBlockData, BlockData: &BlockData{JobID: "j", Block: 1, Data: []float64{1}}},
		{Type: TDone, Done: &Done{JobID: "j", OK: true}},
	}
	for _, f := range want {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range want {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("frame %d mismatch: got %+v want %+v", i, got, w)
		}
	}
	if _, err := ReadFrame(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

// TestBlockDataChecksum flips one byte inside a BlockData payload's float
// region and asserts the decoder rejects the frame with ErrChecksum instead
// of silently accepting corrupted numerics.
func TestBlockDataChecksum(t *testing.T) {
	b, err := Encode(Frame{Type: TBlockData, BlockData: &BlockData{
		JobID: "job", RunID: 9, Epoch: 1, Block: 4,
		Data: []float64{1.5, -2.25, 3.75, 0, 11},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Round-trips clean.
	if _, err := ReadFrame(bytes.NewReader(b)); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}
	// Flip one bit inside the float payload (after the header, the string,
	// and the fixed fields; before the trailing CRC).
	bad := append([]byte(nil), b...)
	bad[len(bad)-12] ^= 0x01
	if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted payload: got %v, want ErrChecksum", err)
	}
	// A corrupted CRC trailer itself is also a rejection.
	bad2 := append([]byte(nil), b...)
	bad2[len(bad2)-1] ^= 0xFF
	if _, err := ReadFrame(bytes.NewReader(bad2)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted trailer: got %v, want ErrChecksum", err)
	}
}
