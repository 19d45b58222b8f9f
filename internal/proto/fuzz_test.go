package proto

import (
	"bytes"
	"testing"

	patree "github.com/patree/patree"
)

// FuzzDecode feeds arbitrary bytes to every decoder: p as a request body
// of kind code, as a batch request body, as the response body of status
// code to the single op kinds[0], and as a batch response body to ops of
// kinds. No input may panic, and whatever decodes must encode back to the
// same bytes: the encoding is canonical. The one exception is a failed
// single response, whose body is free message text; it must decode to an
// error that keeps its status.
func FuzzDecode(f *testing.F) {
	for _, g := range Golden {
		var kinds []byte
		for _, op := range g.Ops {
			kinds = append(kinds, uint8(op.Kind))
		}
		req, resp := Unhex(g.Req), Unhex(g.Resp)
		kind, _, p, _ := SplitSpan(FrameKind(req[4:]), FrameBody(req[4:]))
		f.Add(kind, p, kinds)
		f.Add(FrameKind(resp[4:]), FrameBody(resp[4:]), kinds)
	}
	f.Fuzz(func(t *testing.T, code uint8, p, kindBytes []byte) {
		if op, err := DecodeRequest(code, p); err == nil {
			if got, want := AppendRequest(nil, 1, 0, op), AppendFrame(nil, 1, code, p); !bytes.Equal(got, want) {
				t.Fatalf("request %+v re-encodes to\n%x, decoded from\n%x", op, got, want)
			}
		}
		if ops, try, err := DecodeBatch(p, nil); err == nil {
			if got, want := AppendBatch(nil, 1, 0, try, ops), AppendFrame(nil, 1, KindBatch, p); !bytes.Equal(got, want) {
				t.Fatalf("batch %+v re-encodes to\n%x, decoded from\n%x", ops, got, want)
			}
		}
		ops := make([]patree.BatchOp, len(kindBytes))
		for i, k := range kindBytes {
			if ops[i].Kind = patree.OpKind(k); k < KindPut || k > KindSync {
				return // the client decodes results of valid kinds only
			}
		}
		if len(ops) == 1 {
			r := DecodeResponse(ops[0].Kind, code, p)
			switch {
			case code != StatusOK && r.Err == nil:
				t.Fatalf("status %d decoded to no error", code)
			case code != StatusOK && code <= StatusTooLarge && StatusOf(r.Err) != code:
				t.Fatalf("status %d decoded to %v, status %d", code, r.Err, StatusOf(r.Err))
			case code == StatusOK && r.Err == nil:
				if got, want := AppendResponse(nil, 1, ops[0].Kind, r), AppendFrame(nil, 1, code, p); !bytes.Equal(got, want) {
					t.Fatalf("%s result %s re-encodes to\n%x, decoded from\n%x", ops[0].Kind, DescribeResult(r), got, want)
				}
			}
		}
		if results, err := DecodeBatchResponse(p, kindsOf(ops)); err == nil {
			got := AppendBatchResponse(nil, 1, ops, func(i int) patree.Result { return results[i] })
			if want := AppendFrame(nil, 1, StatusOK, p); !bytes.Equal(got, want) {
				t.Fatalf("batch results re-encode to\n%x, decoded from\n%x", got, want)
			}
		}
	})
}

func kindsOf(ops []patree.BatchOp) []patree.OpKind {
	kinds := make([]patree.OpKind, len(ops))
	for i, op := range ops {
		kinds[i] = op.Kind
	}
	return kinds
}
