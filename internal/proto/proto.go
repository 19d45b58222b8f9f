// Package proto is the wire protocol shared by the PA-Tree server
// (internal/server) and the network client (package client): a compact
// length-prefixed binary framing with pipelined, out-of-order
// completion keyed by request id, plus the stable mapping between the
// public error taxonomy and protocol status codes.
//
// Every frame, in both directions, is
//
//	u32  length of the remainder (little-endian, < MaxFrame)
//	u64  request id (echoed verbatim in the response)
//	u8   kind (requests) / status (responses)
//	...  body
//
// Request bodies:
//
//	Put/Update: key u64 | value bytes (rest of frame)
//	Get/Delete: key u64
//	Scan:       lo u64 | hi u64 | limit i64
//	Sync:       (empty)
//	Batch:      flags u8 (bit0 = try) | count u32 | count × sub-op
//	            sub-op: kind u8 | body (Put/Update carry an explicit
//	            vlen u32 before the value, since they are not
//	            frame-delimited)
//
// Response bodies:
//
//	status OK, single op:  flags u8 (bit0 = found) | payload
//	                       (Get: value bytes; Scan: encoded pairs)
//	status OK, batch:      count u32 | count × (status u8 | flags u8 |
//	                       plen u32 | payload)
//	status != OK:          error message (optional, UTF-8)
//
// Encoded pairs: count u32 | count × (key u64 | vlen u32 | value).
//
// A request is admitted as its embedded spelling is, in the order the
// connection sent it: a single op or a non-try batch always, the server
// waiting for ring room (in ring-sized pieces if it must), and a try
// batch all-or-nothing, so a full admission ring yields one StatusBusy
// response for the whole frame with nothing admitted. StatusBusy is the
// wire form of ErrBacklog, which the try batch's TryCommit returns; no
// other request draws it, and no request is ever resent.
//
// # Protocol versions and trace propagation
//
// The frames above are protocol version 0 and remain valid forever: a
// client that sends nothing else talks to every server, old or new.
// Version 1 adds an optional handshake and request-scoped trace
// propagation on top, negotiated so that neither side ever sends a
// frame its peer cannot parse:
//
//   - A Hello request (KindHello, body: version u8 | flags u8) offered
//     by the client right after dialing. A v1 server answers StatusOK
//     with the same body shape carrying the negotiated (minimum)
//     version and the intersection of the offered flags. A v0 server
//     answers StatusBadRequest ("unknown op kind"), which the client
//     treats as "version 0 negotiated" — the conversation continues in
//     plain v0 frames.
//   - After a handshake that negotiated HelloFlagTrace, a request's
//     kind byte may carry FlagSpan (bit 7). The body is then prefixed
//     with the request's span id (u64, nonzero) before the v0 payload:
//     the client's trace context, propagated so the server and engine
//     can attribute their side of the request to the same span.
//     A span id's presence is the sampled flag; unsampled requests stay
//     plain v0 frames even on a v1 connection, so trace propagation
//     costs nothing when sampling is off.
//
// Response frames never carry FlagSpan: the client already knows the
// span, so echoing it would be 8 wasted bytes per response.
//
// # One codec
//
// Both ends build and parse every frame with this package. A decoded
// []byte never aliases the frame buffer, and a count read off the wire
// is checked against the bytes left before it sizes anything.
package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	patree "github.com/patree/patree"
)

// Request kinds. KindPut..KindSync equal patree.OpPut..OpSync, so the
// wire kind of an op is uint8(op.Kind).
const (
	KindPut uint8 = iota + 1
	KindGet
	KindUpdate
	KindDelete
	KindScan
	KindSync
	KindBatch
	KindHello
)

// KindNames names the wire kinds, indexed by kind (0 unused): the trace
// class and metric label table of both ends.
var KindNames = [...]string{"-", "put", "get", "update", "delete", "scan", "sync", "batch", "hello"}

// Version is the highest protocol version this build speaks. Version 0
// is the implicit pre-handshake protocol; version 1 adds the Hello
// handshake and span propagation.
const Version = 1

// Hello flag bits (offered by the client, intersected by the server).
const (
	// HelloFlagTrace: the connection may carry FlagSpan trace contexts.
	HelloFlagTrace uint8 = 1 << 0
)

// FlagSpan is bit 7 of a request's kind byte: the body is prefixed with
// a u64 span id. Only valid after a handshake negotiating
// HelloFlagTrace. KindMask strips it.
const (
	FlagSpan uint8 = 0x80
	KindMask uint8 = 0x7f
)

// Response status codes. The numeric values are wire-stable: changing
// one is a protocol break.
const (
	StatusOK           uint8 = 0
	StatusBusy         uint8 = 1
	StatusClosed       uint8 = 2
	StatusDeviceFailed uint8 = 3
	StatusBatchAborted uint8 = 4
	StatusTooLarge     uint8 = 5
	StatusBadRequest   uint8 = 6
	StatusInternal     uint8 = 7
)

// FoundFlag is bit0 of a response's flags byte.
const FoundFlag = 1

// MaxFrame is the largest frame either side accepts (length prefix
// excluded). It bounds a batch and a scan result. ReadFrame enforces it
// where frames are read, and each end where it encodes them: the client
// refuses to send a longer request, and AppendResponse and
// AppendBatchResponse answer a longer result with StatusInternal.
const MaxFrame = 16 << 20

// HeaderLen is the fixed prefix of every frame body: id + kind/status.
const HeaderLen = 8 + 1

// ErrFrameTooLarge reports a frame exceeding MaxFrame. ReadFrame's
// connection is unrecoverable afterwards (framing is lost), so neither
// end ever sends one.
var ErrFrameTooLarge = errors.New("proto: frame exceeds MaxFrame")

// StatusOf maps an operation error to its wire status code. Unknown
// errors map to StatusInternal; their message travels in the body.
func StatusOf(err error) uint8 {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, patree.ErrBacklog):
		return StatusBusy
	case errors.Is(err, patree.ErrClosed):
		return StatusClosed
	case errors.Is(err, patree.ErrDeviceFailed):
		return StatusDeviceFailed
	case errors.Is(err, patree.ErrBatchAborted):
		return StatusBatchAborted
	case errors.Is(err, patree.ErrValueTooLarge):
		return StatusTooLarge
	default:
		return StatusInternal
	}
}

// ErrFromStatus maps a wire status back to the public taxonomy: the
// same sentinel the server observed, so errors.Is gives identical
// answers on both sides of the wire. A non-empty remote message is
// attached by wrapping, preserving errors.Is.
func ErrFromStatus(status uint8, msg string) error {
	var base error
	switch status {
	case StatusOK:
		return nil
	case StatusBusy:
		base = patree.ErrBacklog
	case StatusClosed:
		base = patree.ErrClosed
	case StatusDeviceFailed:
		base = patree.ErrDeviceFailed
	case StatusBatchAborted:
		base = patree.ErrBatchAborted
	case StatusTooLarge:
		base = patree.ErrValueTooLarge
	case StatusBadRequest:
		if msg == "" {
			msg = "malformed request"
		}
		return fmt.Errorf("patree: remote: bad request: %s", msg)
	default:
		if msg == "" {
			msg = "internal error"
		}
		return fmt.Errorf("patree: remote: %s", msg)
	}
	if msg == "" {
		return base
	}
	return fmt.Errorf("%w (remote: %s)", base, msg)
}

// AppendFrame appends a complete frame (length prefix, id, kind, body)
// to dst and returns the extended slice.
func AppendFrame(dst []byte, id uint64, kind uint8, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(HeaderLen+len(body)))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, kind)
	return append(dst, body...)
}

// BeginFrame appends the length placeholder plus header and returns the
// extended slice and the offset of the placeholder; FinishFrame patches
// the length once the body is in place. This builds a frame in one
// buffer without assembling the body separately.
func BeginFrame(dst []byte, id uint64, kind uint8) ([]byte, int) {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, kind)
	return dst, at
}

// FinishFrame patches the length prefix begun at offset at.
func FinishFrame(dst []byte, at int) []byte {
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// ReadFrame reads one frame body (id onward) into buf, growing it as
// needed, and returns the filled slice. The returned slice aliases buf
// and is only valid until the next call.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < HeaderLen || n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// FrameID returns the request id of a frame body returned by ReadFrame.
func FrameID(body []byte) uint64 { return binary.LittleEndian.Uint64(body) }

// FrameKind returns the kind/status byte of a frame body.
func FrameKind(body []byte) uint8 { return body[8] }

// FrameBody returns the payload after the id and kind/status byte.
func FrameBody(body []byte) []byte { return body[HeaderLen:] }

// FrameSize returns the whole length of the frame whose first four
// bytes are prefix: the length prefix plus what it counts.
func FrameSize(prefix []byte) int { return 4 + int(binary.LittleEndian.Uint32(prefix)) }

var errMalformed = errors.New("proto: malformed frame")

// malformed reports a body of a known kind that does not parse.
func malformed(kind uint8) error { return fmt.Errorf("%w (%s)", errMalformed, KindNames[kind]) }

// batchTry is bit 0 of a batch request's flags byte, the only bit
// defined: the client admits the batch with Batch.TryCommit.
const batchTry = 1

// AppendRequest appends op's single-op request frame. A nonzero span
// prefixes the body with the trace context (FlagSpan).
func AppendRequest(dst []byte, id, span uint64, op patree.BatchOp) []byte {
	// Room for the largest body (span, then a scan or a key and the value)
	// up front: the frame is built with one allocation.
	dst = slices.Grow(dst, 4+HeaderLen+8+24+len(op.Value))
	dst, at := beginRequest(dst, id, uint8(op.Kind), span)
	return FinishFrame(appendOp(dst, op, false), at)
}

// AppendBatch appends a batch request frame carrying ops in staging order.
func AppendBatch(dst []byte, id, span uint64, try bool, ops []patree.BatchOp) []byte {
	dst, at := beginRequest(dst, id, KindBatch, span)
	flags := uint8(0)
	if try {
		flags = batchTry
	}
	dst = binary.LittleEndian.AppendUint32(append(dst, flags), uint32(len(ops)))
	for _, op := range ops {
		dst = appendOp(append(dst, uint8(op.Kind)), op, true)
	}
	return FinishFrame(dst, at)
}

func beginRequest(dst []byte, id uint64, kind uint8, span uint64) ([]byte, int) {
	if span == 0 {
		return BeginFrame(dst, id, kind)
	}
	dst, at := BeginFrame(dst, id, kind|FlagSpan)
	return binary.LittleEndian.AppendUint64(dst, span), at
}

// appendOp appends op's body. A batch sub-op's value carries its length;
// a single request's value runs to the end of the frame. An invalid kind
// panics: Batch.Stage refuses one before it can reach here.
func appendOp(dst []byte, op patree.BatchOp, sub bool) []byte {
	le := binary.LittleEndian
	switch op.Kind {
	case patree.OpPut, patree.OpUpdate:
		dst = le.AppendUint64(dst, op.Key)
		if sub {
			dst = le.AppendUint32(dst, uint32(len(op.Value)))
		}
		return append(dst, op.Value...)
	case patree.OpGet, patree.OpDelete:
		return le.AppendUint64(dst, op.Key)
	case patree.OpScan:
		return le.AppendUint64(le.AppendUint64(le.AppendUint64(dst, op.Key), op.End), uint64(op.Limit))
	case patree.OpSync:
		return dst
	}
	panic(fmt.Sprintf("proto: invalid op kind %d", op.Kind))
}

// decodeOp decodes one op body of wire kind, as appendOp wrote it, and
// returns the bytes after it.
func decodeOp(kind uint8, p []byte, sub bool) (patree.BatchOp, []byte, error) {
	le := binary.LittleEndian
	op := patree.BatchOp{Kind: patree.OpKind(kind)}
	switch op.Kind {
	case patree.OpPut, patree.OpUpdate:
		if !sub && len(p) >= 8 {
			op.Key, op.Value = le.Uint64(p), bytes.Clone(p[8:])
			return op, nil, nil
		}
		if sub && len(p) >= 12 && uint64(le.Uint32(p[8:])) <= uint64(len(p)-12) {
			end := 12 + int(le.Uint32(p[8:]))
			op.Key, op.Value = le.Uint64(p), bytes.Clone(p[12:end])
			return op, p[end:], nil
		}
	case patree.OpGet, patree.OpDelete:
		if len(p) >= 8 {
			op.Key = le.Uint64(p)
			return op, p[8:], nil
		}
	case patree.OpScan:
		if len(p) >= 24 {
			op.Key, op.End, op.Limit = le.Uint64(p), le.Uint64(p[8:]), int(int64(le.Uint64(p[16:])))
			return op, p[24:], nil
		}
	case patree.OpSync:
		return op, p, nil
	default:
		return op, nil, fmt.Errorf("unknown op kind %d", kind)
	}
	return op, nil, malformed(kind)
}

// DecodeRequest decodes a single-op request body; kind and body are as
// SplitSpan returns them.
func DecodeRequest(kind uint8, p []byte) (patree.BatchOp, error) {
	op, rest, err := decodeOp(kind, p, false)
	if err == nil && len(rest) != 0 {
		err = malformed(kind)
	}
	return op, err
}

// DecodeBatch decodes a batch request body, appends its sub-ops to ops
// and reports its try flag: the client committed the batch with
// TryCommit, and the server admits it the same way.
func DecodeBatch(p []byte, ops []patree.BatchOp) ([]patree.BatchOp, bool, error) {
	// A sub-op takes at least its kind byte: a count above the bytes left
	// is refused before it sizes anything.
	if len(p) < 5 || p[0]&^batchTry != 0 || uint64(binary.LittleEndian.Uint32(p[1:])) > uint64(len(p)-5) {
		return ops, false, malformed(KindBatch)
	}
	try, n := p[0] == batchTry, int(binary.LittleEndian.Uint32(p[1:]))
	ops = slices.Grow(ops, n)
	for p = p[5:]; n > 0 && len(p) > 0; n-- {
		op, rest, err := decodeOp(p[0], p[1:], true)
		if err != nil {
			return ops, try, err
		}
		ops, p = append(ops, op), rest
	}
	if n != 0 || len(p) != 0 {
		return ops, try, malformed(KindBatch)
	}
	return ops, try, nil
}

// appendResult appends one successful op's flags, then its payload: a
// Get's value, a Scan's pairs, nothing otherwise. Inside a batch response
// the payload carries its length.
func appendResult(dst []byte, kind patree.OpKind, r patree.Result, sub bool) []byte {
	flags := uint8(0)
	if r.Found {
		flags = FoundFlag
	}
	dst = append(dst, flags)
	at := len(dst)
	if sub {
		dst = append(dst, 0, 0, 0, 0)
	}
	switch kind {
	case patree.OpGet:
		dst = append(dst, r.Value...)
	case patree.OpScan:
		dst = AppendPairs(dst, r.Pairs)
	}
	if sub {
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	}
	return dst
}

// decodeResult decodes one op's outcome: the error of a non-OK status,
// whose payload is its message, or the flags and payload appendResult
// wrote.
func decodeResult(kind patree.OpKind, status, flags uint8, p []byte) patree.Result {
	if status != StatusOK {
		return patree.Result{Err: ErrFromStatus(status, string(p))}
	}
	if flags&^FoundFlag != 0 {
		return patree.Result{Err: errMalformed}
	}
	r := patree.Result{Found: flags == FoundFlag}
	switch kind {
	case patree.OpGet:
		if len(p) > 0 {
			r.Value = bytes.Clone(p)
		}
	case patree.OpScan:
		r.Pairs, r.Err = DecodePairs(p)
	default:
		if len(p) != 0 {
			r.Err = errMalformed
		}
	}
	return r
}

// AppendResponse appends the response frame of one op: the status of
// r.Err and, on success, the op's flags and payload.
func AppendResponse(dst []byte, id uint64, kind patree.OpKind, r patree.Result) []byte {
	status := StatusOf(r.Err)
	dst, at := BeginFrame(dst, id, status)
	if status == StatusOK {
		dst = appendResult(dst, kind, r, false)
	}
	return finishResponse(dst, at, id)
}

// finishResponse patches the length of the response frame begun at at.
// A frame longer than MaxFrame is replaced by a StatusInternal one
// saying so: the request fails alone, where sending the frame would
// cost the peer its connection.
func finishResponse(dst []byte, at int, id uint64) []byte {
	if len(dst)-at-4 > MaxFrame {
		return AppendFrame(dst[:at], id, StatusInternal, []byte(ErrFrameTooLarge.Error()))
	}
	return FinishFrame(dst, at)
}

// DecodeResponse decodes the response body of one op of kind.
func DecodeResponse(kind patree.OpKind, status uint8, body []byte) patree.Result {
	if status != StatusOK {
		return decodeResult(kind, status, 0, body)
	}
	if len(body) == 0 {
		return patree.Result{Err: errMalformed}
	}
	return decodeResult(kind, status, body[0], body[1:])
}

// AppendBatchResponse appends the StatusOK response frame of an admitted
// batch: for each op in staging order, result(i) encoded as status |
// flags | plen | payload.
func AppendBatchResponse(dst []byte, id uint64, ops []patree.BatchOp, result func(i int) patree.Result) []byte {
	dst, at := BeginFrame(dst, id, StatusOK)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ops)))
	for i, op := range ops {
		r := result(i)
		if status := StatusOf(r.Err); status != StatusOK {
			dst = append(dst, status, 0, 0, 0, 0, 0)
		} else {
			dst = appendResult(append(dst, status), op.Kind, r, true)
		}
	}
	return finishResponse(dst, at, id)
}

// DecodeBatchResponse decodes a StatusOK batch response body into one
// result per op of kinds. The frame is malformed when its count is not
// len(kinds), when an OK entry does not decode, and when a failed entry
// carries flags, a payload or a status StatusOf never yields.
func DecodeBatchResponse(body []byte, kinds []patree.OpKind) ([]patree.Result, error) {
	le := binary.LittleEndian
	if len(body) < 4 || le.Uint32(body) != uint32(len(kinds)) {
		return nil, errMalformed
	}
	out := make([]patree.Result, len(kinds))
	body = body[4:]
	for i, kind := range kinds {
		if len(body) < 6 || uint64(le.Uint32(body[2:])) > uint64(len(body)-6) {
			return nil, errMalformed
		}
		status, flags, end := body[0], body[1], 6+int(le.Uint32(body[2:]))
		if status != StatusOK && (flags != 0 || end != 6 || status == StatusBadRequest || status > StatusInternal) {
			return nil, errMalformed
		}
		if out[i] = decodeResult(kind, status, flags, body[6:end]); status == StatusOK && out[i].Err != nil {
			return nil, out[i].Err
		}
		body = body[end:]
	}
	if len(body) != 0 {
		return nil, errMalformed
	}
	return out, nil
}

// AppendPairs appends the wire encoding of scan results.
func AppendPairs(dst []byte, pairs []patree.KV) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pairs)))
	for _, kv := range pairs {
		dst = binary.LittleEndian.AppendUint64(dst, kv.Key)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(kv.Value)))
		dst = append(dst, kv.Value...)
	}
	return dst
}

// DecodePairs decodes AppendPairs output, which must fill b exactly. A
// pair takes at least 12 bytes: a count above that many is refused before
// it sizes anything.
func DecodePairs(b []byte) ([]patree.KV, error) {
	le := binary.LittleEndian
	if len(b) < 4 || uint64(le.Uint32(b)) > uint64(len(b)-4)/12 {
		return nil, errMalformed
	}
	var pairs []patree.KV
	n := int(le.Uint32(b))
	if n > 0 {
		pairs = make([]patree.KV, 0, n)
	}
	for b = b[4:]; len(pairs) < n; {
		if len(b) < 12 || uint64(le.Uint32(b[8:])) > uint64(len(b)-12) {
			return nil, errMalformed
		}
		end := 12 + int(le.Uint32(b[8:]))
		pairs = append(pairs, patree.KV{Key: le.Uint64(b), Value: bytes.Clone(b[12:end])})
		b = b[end:]
	}
	if len(b) != 0 {
		return nil, errMalformed
	}
	return pairs, nil
}

// AppendHello appends a Hello request (or its StatusOK response — the
// body shape is shared) offering version and flags.
func AppendHello(dst []byte, id uint64, kindOrStatus uint8, version, flags uint8) []byte {
	return AppendFrame(dst, id, kindOrStatus, []byte{version, flags})
}

// ParseHello decodes a Hello body (request or response).
func ParseHello(body []byte) (version, flags uint8, err error) {
	if len(body) != 2 {
		return 0, 0, errMalformed
	}
	return body[0], body[1], nil
}

// Negotiate resolves an offered (version, flags) pair against this
// build: the lower version wins and only mutually understood flags
// survive.
func Negotiate(version, flags uint8) (uint8, uint8) {
	if version > Version {
		version = Version
	}
	if version < 1 {
		return version, 0
	}
	return version, flags & HelloFlagTrace
}

// SplitSpan strips a request frame's trace context: given the raw kind
// byte and payload it returns the bare kind, the span id (0 when the
// frame carries none) and the payload with the span prefix removed.
// A FlagSpan frame too short to hold the span id reports ok=false.
func SplitSpan(kind uint8, p []byte) (bare uint8, span uint64, rest []byte, ok bool) {
	if kind&FlagSpan == 0 {
		return kind, 0, p, true
	}
	if len(p) < 8 {
		return kind & KindMask, 0, p, false
	}
	return kind & KindMask, binary.LittleEndian.Uint64(p), p[8:], true
}
