package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestZeroValueDropsEvents(t *testing.T) {
	var tr Tracer
	tr.Emit(0, 0, 1, 0, 10, 5)
	if tr.Len() != 0 || tr.Emitted() != 0 {
		t.Fatalf("zero-value tracer stored an event: len=%d emitted=%d", tr.Len(), tr.Emitted())
	}
	var nilTr *Tracer
	nilTr.Emit(0, 0, 1, 0, 10, 5) // must not panic
	if nilTr.Len() != 0 || nilTr.Cap() != 0 || nilTr.Events() != nil {
		t.Fatal("nil tracer accessors not inert")
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := New(16, nil, nil)
	for i := 0; i < 40; i++ {
		tr.Emit(0, 0, uint64(i), 0, int64(i), 1)
	}
	if tr.Len() != 16 {
		t.Fatalf("len = %d, want 16", tr.Len())
	}
	if tr.Emitted() != 40 {
		t.Fatalf("emitted = %d, want 40", tr.Emitted())
	}
	evs := tr.Events()
	for i, e := range evs {
		if want := uint64(24 + i); e.Seq != want {
			t.Fatalf("event %d: seq %d, want %d (oldest-first order broken)", i, e.Seq, want)
		}
	}
}

func TestMinimumCapacity(t *testing.T) {
	tr := New(1, nil, nil)
	if tr.Cap() != 16 {
		t.Fatalf("cap = %d, want clamped minimum 16", tr.Cap())
	}
}

func TestReset(t *testing.T) {
	tr := New(16, nil, nil)
	for i := 0; i < 20; i++ {
		tr.Emit(0, 0, uint64(i), 0, int64(i), 1)
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Emitted() != 0 {
		t.Fatal("Reset left events behind")
	}
	tr.Emit(0, 0, 99, 0, 1, 1)
	if evs := tr.Events(); len(evs) != 1 || evs[0].Seq != 99 {
		t.Fatal("tracer unusable after Reset")
	}
}

func TestChromeJSONWellFormed(t *testing.T) {
	tr := New(64, []string{"alpha", "beta"}, []string{"search", "insert"})
	tr.Emit(0, 0, 1, 7, 1500, 2500)    // slice on track alpha
	tr.Emit(1, 1, 2, 0, 4000, Instant) // instant on track beta
	tr.Emit(9, 0, 3, 0, -250, 10)      // out-of-range code, negative ts
	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Unit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	var meta, slices, instants int
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			meta++
			if args, ok := e["args"].(map[string]any); ok {
				if n, ok := args["name"].(string); ok {
					names[n] = true
				}
			}
		case "X":
			slices++
		case "i":
			instants++
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	if slices != 2 || instants != 1 {
		t.Fatalf("got %d slices, %d instants; want 2, 1", slices, instants)
	}
	// Process name + one thread row per appearing code (0, 1, 9).
	if meta != 4 {
		t.Fatalf("got %d metadata rows, want 4", meta)
	}
	for _, want := range []string{"patree", "alpha", "beta", "code9"} {
		if !names[want] {
			t.Fatalf("missing metadata name %q (have %v)", want, names)
		}
	}
	if !strings.Contains(buf.String(), `"ts":1.500`) {
		t.Fatalf("microsecond formatting broken:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"ts":-0.250`) {
		t.Fatalf("negative timestamp formatting broken:\n%s", buf.String())
	}
}

func TestChromeJSONDeterministic(t *testing.T) {
	build := func() []byte {
		tr := New(32, []string{"a"}, []string{"k"})
		for i := 0; i < 50; i++ {
			tr.Emit(0, 0, uint64(i), uint64(i*3), int64(i)*1000, int64(i%5)*100)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeJSON(&buf, tr.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical event sequences produced different JSON")
	}
}

func TestEventsIsACopy(t *testing.T) {
	tr := New(16, nil, nil)
	tr.Emit(0, 0, 1, 0, 1, 1)
	evs := tr.Events()
	for i := 0; i < 32; i++ {
		tr.Emit(0, 0, uint64(100+i), 0, 1, 1)
	}
	if evs[0].Seq != 1 {
		t.Fatal("Events() snapshot mutated by later emission")
	}
}
