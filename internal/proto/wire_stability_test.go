package proto

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"

	patree "github.com/patree/patree"
)

// TestWireStability pins the exact bytes of version-0 frames and the
// numeric values of every constant version 1 adds. A v0 frame encoded
// by this build must be bit-identical to one encoded before the
// handshake existed — old clients and servers parse by these offsets —
// and the new kind/flag bytes must never collide with or renumber the
// old ones.
func TestWireStability(t *testing.T) {
	// v0 Put frame: len=0x12 | id=0x0102030405060708 | kind=1 | key | value.
	frame := AppendFrame(nil, 0x0102030405060708, KindPut,
		append([]byte{0xEF, 0xBE, 0, 0, 0, 0, 0, 0}, []byte("v")...))
	want := []byte{
		0x12, 0x00, 0x00, 0x00, // length: 9 header + 8 key + 1 value
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // id, little-endian
		0x01,                                           // KindPut
		0xEF, 0xBE, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // key
		'v',
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("v0 put frame drifted:\n got %x\nwant %x", frame, want)
	}

	// Kind values are wire-stable; KindHello extends, never renumbers.
	kinds := map[string]uint8{
		"Put": 1, "Get": 2, "Update": 3, "Delete": 4,
		"Scan": 5, "Sync": 6, "Batch": 7, "Hello": 8,
	}
	got := map[string]uint8{
		"Put": KindPut, "Get": KindGet, "Update": KindUpdate, "Delete": KindDelete,
		"Scan": KindScan, "Sync": KindSync, "Batch": KindBatch, "Hello": KindHello,
	}
	for name, w := range kinds {
		if got[name] != w {
			t.Errorf("Kind%s = %d, want %d (wire-stable)", name, got[name], w)
		}
	}
	// An op's wire kind is uint8(op.Kind): the two tables are one.
	ops := map[string]patree.OpKind{
		"Put": patree.OpPut, "Get": patree.OpGet, "Update": patree.OpUpdate,
		"Delete": patree.OpDelete, "Scan": patree.OpScan, "Sync": patree.OpSync,
	}
	for name, k := range ops {
		if uint8(k) != got[name] {
			t.Errorf("uint8(patree.Op%s) = %d, want Kind%s = %d", name, k, name, got[name])
		}
	}

	// The span flag lives in bit 7, above every kind value, so a flagged
	// kind byte can never be mistaken for a different bare kind.
	if FlagSpan != 0x80 || KindMask != 0x7f {
		t.Fatalf("FlagSpan/KindMask = %#x/%#x, want 0x80/0x7f", FlagSpan, KindMask)
	}
	for name, k := range got {
		if k&FlagSpan != 0 {
			t.Errorf("Kind%s = %d collides with FlagSpan", name, k)
		}
		if (k|FlagSpan)&KindMask != k {
			t.Errorf("KindMask does not recover Kind%s from a flagged byte", name)
		}
	}
	if Version != 1 || HelloFlagTrace != 1 {
		t.Fatalf("Version/HelloFlagTrace = %d/%d, want 1/1", Version, HelloFlagTrace)
	}
}

// TestHelloRoundTrip pins the handshake frame layout and negotiation.
func TestHelloRoundTrip(t *testing.T) {
	frame := AppendHello(nil, 9, KindHello, Version, HelloFlagTrace)
	want := []byte{
		0x0b, 0x00, 0x00, 0x00, // length: 9 header + 2 body
		0x09, 0, 0, 0, 0, 0, 0, 0, // id
		0x08,       // KindHello
		0x01, 0x01, // version 1, HelloFlagTrace
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("hello frame drifted:\n got %x\nwant %x", frame, want)
	}
	body, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	v, f, err := ParseHello(FrameBody(body))
	if err != nil || v != Version || f != HelloFlagTrace {
		t.Fatalf("ParseHello = (%d, %d, %v), want (1, 1, nil)", v, f, err)
	}
	if _, _, err := ParseHello([]byte{1}); err == nil {
		t.Fatal("short hello body must not parse")
	}

	// Negotiation: minimum version wins, unknown flags are dropped.
	if v, f := Negotiate(Version, HelloFlagTrace); v != 1 || f != HelloFlagTrace {
		t.Fatalf("Negotiate(1,trace) = (%d,%d), want (1,1)", v, f)
	}
	if v, f := Negotiate(99, 0xff); v != Version || f != HelloFlagTrace {
		t.Fatalf("Negotiate(99,0xff) = (%d,%d): future offers must clamp", v, f)
	}
	if v, f := Negotiate(0, HelloFlagTrace); v != 0 || f != 0 {
		t.Fatalf("Negotiate(0,trace) = (%d,%d): v0 carries no flags", v, f)
	}
}

// TestSplitSpan pins the trace-context prefix: a flagged frame's body
// starts with the u64 span id; an unflagged body passes through intact.
func TestSplitSpan(t *testing.T) {
	payload := []byte{0xAA, 0xBB}
	body := append([]byte{0x2A, 0, 0, 0, 0, 0, 0, 0}, payload...)
	kind, span, rest, ok := SplitSpan(KindGet|FlagSpan, body)
	if !ok || kind != KindGet || span != 0x2A || !bytes.Equal(rest, payload) {
		t.Fatalf("SplitSpan(flagged) = (%d, %d, %x, %v)", kind, span, rest, ok)
	}
	kind, span, rest, ok = SplitSpan(KindGet, body)
	if !ok || kind != KindGet || span != 0 || !bytes.Equal(rest, body) {
		t.Fatalf("SplitSpan(bare) = (%d, %d, %x, %v)", kind, span, rest, ok)
	}
	if _, _, _, ok := SplitSpan(KindGet|FlagSpan, []byte{1, 2}); ok {
		t.Fatal("flagged frame shorter than a span id must not parse")
	}
}

// GoldenExchange is one request frame and the response a server over a
// fresh DB answers it with, when Golden is replayed in order on one
// connection, together with the values both frames encode. Frames are
// hex, length prefix included; spaces separate fields and are ignored.
type GoldenExchange struct {
	Name    string
	ID      uint64
	Span    uint64           // trace context prefixed to the request (0 = none)
	Batch   bool             // a KindBatch request rather than a single op
	Try     bool             // the batch's try flag
	Ops     []patree.BatchOp // the request's ops; nil for a non-op frame
	Results []patree.Result  // what the response carries, one per op
	Req     string
	Resp    string
}

func gop(kind patree.OpKind, key uint64, value string) patree.BatchOp {
	op := patree.BatchOp{Kind: kind, Key: key}
	if value != "" {
		op.Value = []byte(value)
	}
	return op
}

func gscan(lo, hi uint64, limit int) patree.BatchOp {
	return patree.BatchOp{Kind: patree.OpScan, Key: lo, End: hi, Limit: limit}
}

// tooLarge is one byte over patree.MaxValueSize (236): a put of it fails
// alone inside a batch whose other ops succeed.
var tooLarge = strings.Repeat("x", 237)

// Golden pins every frame shape byte for byte: the six single requests
// with and without a span prefix, a batch of all six kinds with the try
// flag clear and set, OK responses carrying a found flag, a value and
// scan pairs, a batch response with mixed per-op statuses, and a non-OK
// response with a message. Keys are 0x11, 0x22, ... so they read easily
// in the hex.
var Golden = []GoldenExchange{
	{Name: "put", ID: 1,
		Ops:     []patree.BatchOp{gop(patree.OpPut, 0x11, "a")},
		Results: []patree.Result{{}},
		Req:     "12000000 0100000000000000 01 1100000000000000 61",
		Resp:    "0a000000 0100000000000000 00 00"},
	{Name: "put+span, found", ID: 2, Span: 0x5a,
		Ops:     []patree.BatchOp{gop(patree.OpPut, 0x11, "b")},
		Results: []patree.Result{{Found: true}},
		Req:     "1a000000 0200000000000000 81 5a00000000000000 1100000000000000 62",
		Resp:    "0a000000 0200000000000000 00 01"},
	{Name: "update", ID: 3,
		Ops:     []patree.BatchOp{gop(patree.OpUpdate, 0x22, "c")},
		Results: []patree.Result{{}},
		Req:     "12000000 0300000000000000 03 2200000000000000 63",
		Resp:    "0a000000 0300000000000000 00 00"},
	{Name: "update+span", ID: 4, Span: 0x5b,
		Ops:     []patree.BatchOp{gop(patree.OpUpdate, 0x11, "d")},
		Results: []patree.Result{{Found: true}},
		Req:     "1a000000 0400000000000000 83 5b00000000000000 1100000000000000 64",
		Resp:    "0a000000 0400000000000000 00 01"},
	{Name: "get, value", ID: 5,
		Ops:     []patree.BatchOp{gop(patree.OpGet, 0x11, "")},
		Results: []patree.Result{{Found: true, Value: []byte("d")}},
		Req:     "11000000 0500000000000000 02 1100000000000000",
		Resp:    "0b000000 0500000000000000 00 01 64"},
	{Name: "get+span", ID: 6, Span: 0x5c,
		Ops:     []patree.BatchOp{gop(patree.OpGet, 0x22, "")},
		Results: []patree.Result{{}},
		Req:     "19000000 0600000000000000 82 5c00000000000000 2200000000000000",
		Resp:    "0a000000 0600000000000000 00 00"},
	{Name: "batch", ID: 7, Batch: true,
		Ops: []patree.BatchOp{
			gop(patree.OpPut, 0x22, "e"), gop(patree.OpGet, 0x11, ""), gop(patree.OpUpdate, 0x22, "f"),
			gop(patree.OpDelete, 0x33, ""), gscan(0x11, 0x11, 0), {Kind: patree.OpSync},
		},
		Results: []patree.Result{
			{}, {Found: true, Value: []byte("d")}, {Found: true},
			{}, {Pairs: []patree.KV{{Key: 0x11, Value: []byte("d")}}}, {},
		},
		Req: "56000000 0700000000000000 07 00 06000000" +
			" 01 2200000000000000 01000000 65" +
			" 02 1100000000000000" +
			" 03 2200000000000000 01000000 66" +
			" 04 3300000000000000" +
			" 05 1100000000000000 1100000000000000 0000000000000000" +
			" 06",
		Resp: "43000000 0700000000000000 00 06000000" +
			" 00 00 00000000" +
			" 00 01 01000000 64" +
			" 00 01 00000000" +
			" 00 00 00000000" +
			" 00 00 11000000 01000000 1100000000000000 01000000 64" +
			" 00 00 00000000"},
	{Name: "scan, pairs", ID: 8,
		Ops: []patree.BatchOp{gscan(0x11, 0x33, 7)},
		Results: []patree.Result{{Pairs: []patree.KV{
			{Key: 0x11, Value: []byte("d")}, {Key: 0x22, Value: []byte("f")},
		}}},
		Req: "21000000 0800000000000000 05 1100000000000000 3300000000000000 0700000000000000",
		Resp: "28000000 0800000000000000 00 00 02000000" +
			" 1100000000000000 01000000 64 2200000000000000 01000000 66"},
	{Name: "scan+span", ID: 9, Span: 0x5d,
		Ops:     []patree.BatchOp{gscan(0x11, 0x33, 1)},
		Results: []patree.Result{{Pairs: []patree.KV{{Key: 0x11, Value: []byte("d")}}}},
		Req:     "29000000 0900000000000000 85 5d00000000000000 1100000000000000 3300000000000000 0100000000000000",
		Resp:    "1b000000 0900000000000000 00 00 01000000 1100000000000000 01000000 64"},
	{Name: "delete, found", ID: 10,
		Ops:     []patree.BatchOp{gop(patree.OpDelete, 0x22, "")},
		Results: []patree.Result{{Found: true}},
		Req:     "11000000 0a00000000000000 04 2200000000000000",
		Resp:    "0a000000 0a00000000000000 00 01"},
	{Name: "delete+span", ID: 11, Span: 0x5e,
		Ops:     []patree.BatchOp{gop(patree.OpDelete, 0x22, "")},
		Results: []patree.Result{{}},
		Req:     "19000000 0b00000000000000 84 5e00000000000000 2200000000000000",
		Resp:    "0a000000 0b00000000000000 00 00"},
	{Name: "sync", ID: 12,
		Ops:     []patree.BatchOp{{Kind: patree.OpSync}},
		Results: []patree.Result{{}},
		Req:     "09000000 0c00000000000000 06",
		Resp:    "0a000000 0c00000000000000 00 00"},
	{Name: "sync+span", ID: 13, Span: 0x5f,
		Ops:     []patree.BatchOp{{Kind: patree.OpSync}},
		Results: []patree.Result{{}},
		Req:     "11000000 0d00000000000000 86 5f00000000000000",
		Resp:    "0a000000 0d00000000000000 00 00"},
	{Name: "batch+span, try, mixed statuses", ID: 14, Span: 0x60, Batch: true, Try: true,
		Ops: []patree.BatchOp{
			gop(patree.OpPut, 0x33, tooLarge), gop(patree.OpGet, 0x11, ""), gop(patree.OpUpdate, 0x44, "g"),
			gop(patree.OpDelete, 0x11, ""), gscan(0x55, 0x66, 0), {Kind: patree.OpSync},
		},
		Results: []patree.Result{
			{Err: patree.ErrValueTooLarge}, {Found: true, Value: []byte("d")}, {},
			{Found: true}, {}, {},
		},
		Req: "4a010000 0e00000000000000 87 6000000000000000 01 06000000" +
			" 01 3300000000000000 ed000000 " + strings.Repeat("78", 237) +
			" 02 1100000000000000" +
			" 03 4400000000000000 01000000 67" +
			" 04 1100000000000000" +
			" 05 5500000000000000 6600000000000000 0000000000000000" +
			" 06",
		Resp: "36000000 0e00000000000000 00 06000000" +
			" 05 00 00000000" +
			" 00 01 01000000 64" +
			" 00 00 00000000" +
			" 00 01 00000000" +
			" 00 00 04000000 00000000" +
			" 00 00 00000000"},
	{Name: "malformed hello, message", ID: 15,
		Results: []patree.Result{{Err: errors.New("patree: remote: bad request: malformed hello")}},
		Req:     "0a000000 0f00000000000000 08 01",
		Resp:    "18000000 0f00000000000000 06 " + hex.EncodeToString([]byte("malformed hello"))},
}

// Unhex decodes a Golden frame.
func Unhex(s string) []byte {
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		panic(err)
	}
	return b
}

// DescribeResult renders a result for comparison against Golden.
func DescribeResult(r patree.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "found=%v value=%q pairs=[", r.Found, r.Value)
	for _, kv := range r.Pairs {
		fmt.Fprintf(&sb, "%#x:%q ", kv.Key, kv.Value)
	}
	fmt.Fprintf(&sb, "] err=%v", r.Err)
	return sb.String()
}
