package proto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	patree "github.com/patree/patree"
)

// TestStatusRoundTrip pins the satellite contract: every public
// sentinel maps to a stable wire status and back to the *same* sentinel
// under errors.Is, so error handling written against the embedded DB
// behaves identically against the network client.
func TestStatusRoundTrip(t *testing.T) {
	sentinels := []struct {
		err    error
		status uint8
	}{
		{patree.ErrBacklog, StatusBusy},
		{patree.ErrClosed, StatusClosed},
		{patree.ErrDeviceFailed, StatusDeviceFailed},
		{patree.ErrBatchAborted, StatusBatchAborted},
		{patree.ErrValueTooLarge, StatusTooLarge},
	}
	for _, s := range sentinels {
		if got := StatusOf(s.err); got != s.status {
			t.Errorf("StatusOf(%v) = %d, want %d", s.err, got, s.status)
		}
		back := ErrFromStatus(s.status, "")
		if !errors.Is(back, s.err) {
			t.Errorf("ErrFromStatus(%d) = %v, not errors.Is %v", s.status, back, s.err)
		}
		// Wrapped forms (as the server produces them) must keep mapping.
		if got := StatusOf(fmt.Errorf("context: %w", s.err)); got != s.status {
			t.Errorf("StatusOf(wrapped %v) = %d, want %d", s.err, got, s.status)
		}
		// A remote message must not break the sentinel identity.
		withMsg := ErrFromStatus(s.status, "shard 3 ring full")
		if !errors.Is(withMsg, s.err) {
			t.Errorf("ErrFromStatus(%d, msg) = %v, not errors.Is %v", s.status, withMsg, s.err)
		}
	}
	if StatusOf(nil) != StatusOK {
		t.Error("StatusOf(nil) != StatusOK")
	}
	if ErrFromStatus(StatusOK, "") != nil {
		t.Error("ErrFromStatus(StatusOK) != nil")
	}
	if StatusOf(errors.New("novel")) != StatusInternal {
		t.Error("unknown errors must map to StatusInternal")
	}
	if err := ErrFromStatus(StatusBadRequest, "short frame"); err == nil {
		t.Error("StatusBadRequest must map to a non-nil error")
	}
}

// TestStatusCodesStable pins the numeric wire values; changing any is a
// protocol break that must be made consciously.
func TestStatusCodesStable(t *testing.T) {
	want := map[string]uint8{
		"OK": 0, "Busy": 1, "Closed": 2, "DeviceFailed": 3,
		"BatchAborted": 4, "TooLarge": 5, "BadRequest": 6, "Internal": 7,
	}
	got := map[string]uint8{
		"OK": StatusOK, "Busy": StatusBusy, "Closed": StatusClosed,
		"DeviceFailed": StatusDeviceFailed, "BatchAborted": StatusBatchAborted,
		"TooLarge": StatusTooLarge, "BadRequest": StatusBadRequest, "Internal": StatusInternal,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("Status%s = %d, want %d (wire-stable)", name, got[name], w)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frame := AppendFrame(nil, 42, KindPut, []byte("hello"))
	buf.Write(frame)
	frame2, at := BeginFrame(nil, 7, KindScan)
	frame2 = append(frame2, []byte("world!")...)
	buf.Write(FinishFrame(frame2, at))

	body, err := ReadFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if FrameID(body) != 42 || FrameKind(body) != KindPut || string(FrameBody(body)) != "hello" {
		t.Fatalf("frame 1 = id %d kind %d body %q", FrameID(body), FrameKind(body), FrameBody(body))
	}
	body, err = ReadFrame(&buf, body[:0])
	if err != nil {
		t.Fatal(err)
	}
	if FrameID(body) != 7 || FrameKind(body) != KindScan || string(FrameBody(body)) != "world!" {
		t.Fatalf("frame 2 = id %d kind %d body %q", FrameID(body), FrameKind(body), FrameBody(body))
	}
	if _, err := ReadFrame(&buf, body[:0]); err != io.EOF {
		t.Fatalf("empty stream = %v, want EOF", err)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var hdr [4]byte
	hdr[0] = 0xff
	hdr[1] = 0xff
	hdr[2] = 0xff
	hdr[3] = 0x7f
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame = %v, want ErrFrameTooLarge", err)
	}
	// A length below the header minimum is equally invalid.
	if _, err := ReadFrame(bytes.NewReader([]byte{1, 0, 0, 0}), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("undersize frame = %v, want ErrFrameTooLarge", err)
	}
}

func TestPairsRoundTrip(t *testing.T) {
	in := []patree.KV{
		{Key: 1, Value: []byte("a")},
		{Key: 2, Value: nil},
		{Key: 1 << 60, Value: bytes.Repeat([]byte("x"), 300)},
	}
	enc := AppendPairs(nil, in)
	out, err := DecodePairs(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d pairs, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Key != in[i].Key || !bytes.Equal(out[i].Value, in[i].Value) {
			t.Fatalf("pair %d = %+v, want %+v", i, out[i], in[i])
		}
	}
	// Decoded values must not alias the encoding buffer.
	enc[len(enc)-1] ^= 0xff
	if out[2].Value[len(out[2].Value)-1] != 'x' {
		t.Fatal("DecodePairs aliases its input")
	}
	if _, err := DecodePairs(enc[:3]); err == nil {
		t.Fatal("truncated pairs must not decode")
	}
}

// TestDecodeCountsBeforeAllocating: a count read off the wire is checked
// against the bytes left before it sizes anything. Without the check each
// of these sizes a multi-GiB allocation from a handful of bytes.
func TestDecodeCountsBeforeAllocating(t *testing.T) {
	if _, err := DecodePairs([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("DecodePairs of a 2^32-1 count with no pairs must fail")
	}
	if _, _, err := DecodeBatch([]byte{0, 0xff, 0xff, 0xff, 0xff}, nil); err == nil {
		t.Error("DecodeBatch of a 2^32-1 count with no sub-ops must fail")
	}
	// Counts the bytes could hold, whose entries are not there.
	pairs := AppendPairs(nil, []patree.KV{{Key: 1, Value: make([]byte, 12)}})
	pairs[0] = 2
	if _, err := DecodePairs(pairs); err == nil {
		t.Error("DecodePairs of two pairs holding one must fail")
	}
	if _, _, err := DecodeBatch([]byte{0, 2, 0, 0, 0, KindGet, KindSync}, nil); err == nil {
		t.Error("DecodeBatch of a get without its key must fail")
	}
	var allocs runtime.MemStats
	runtime.ReadMemStats(&allocs)
	before := allocs.TotalAlloc
	for i := 0; i < 4; i++ {
		DecodePairs([]byte{0xff, 0xff, 0xff, 0xff})
		DecodeBatch([]byte{0, 0xff, 0xff, 0xff, 0xff}, nil)
	}
	if runtime.ReadMemStats(&allocs); allocs.TotalAlloc-before >= 1<<20 {
		t.Errorf("refusing the counts allocated %d bytes", allocs.TotalAlloc-before)
	}
}
