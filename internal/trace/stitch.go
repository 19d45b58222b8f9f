package trace

import "sort"

// Span-model conventions shared by the serving tier's emitters. The
// stitcher matches events by code *name* (each Process carries its own
// table), so client, server and engine can number their codes freely:
//
//   - the client emits one "request" slice per sampled request with
//     Seq = span id (issue → response delivered);
//   - the server emits one "admit" slice per sampled operation with
//     Seq = span id (burst flush start → admission), Arg = request id;
//   - the engine emits a "span" instant per traced operation with
//     Seq = its own op sequence number and Arg = the span id (the
//     cross-process link), next to its usual "op" slice keyed by Seq.
const (
	SpanCodeRequest = "request"
	SpanCodeAdmit   = "admit"
	SpanCodeLink    = "span"
	SpanCodeOp      = "op"
	// SpanCodeRespond labels the server's response-encode slice. It is
	// part of the span vocabulary but not a stitch anchor: the arrow ends
	// at the engine op, and the respond slice reads as an ordinary lane.
	SpanCodeRespond = "respond"
)

// Stitch computes the flow arrows of a merged serving trace: for every
// span id that appears as a client "request" slice it links the request
// to the server's "admit" slice and on to the engine operation the
// admission produced (located through the engine's "span" link
// instants). Chains missing a tier degrade gracefully — a client-only
// span yields no arrow, a client+server span ends at the admit slice.
// The result is ordered by span id, so identical inputs stitch
// identically.
func Stitch(procs []Process) []Flow {
	type engineOp struct{ proc, seq uint64 }
	var (
		requests = map[uint64]FlowPoint{} // span → client request slice
		admits   = map[uint64]FlowPoint{} // span → server admit slice
		links    = map[uint64]engineOp{}  // span → engine (proc, seq)
		ops      = map[engineOp]FlowPoint{}
	)
	for pi := range procs {
		p := &procs[pi]
		names := map[uint16]string{}
		for _, e := range p.Events {
			if _, done := names[e.Code]; !done {
				names[e.Code] = p.codeName(e.Code, func(uint16) string { return "" })
			}
		}
		for _, e := range p.Events {
			switch names[e.Code] {
			case SpanCodeRequest:
				if e.Dur >= 0 && e.Seq != 0 {
					if _, dup := requests[e.Seq]; !dup {
						requests[e.Seq] = FlowPoint{Proc: pi, Code: e.Code, TS: e.TS}
					}
				}
			case SpanCodeAdmit:
				if e.Dur >= 0 && e.Seq != 0 {
					if _, dup := admits[e.Seq]; !dup {
						admits[e.Seq] = FlowPoint{Proc: pi, Code: e.Code, TS: e.TS}
					}
				}
			case SpanCodeLink:
				if e.Arg != 0 {
					links[e.Arg] = engineOp{proc: uint64(pi), seq: e.Seq}
				}
			case SpanCodeOp:
				if e.Dur >= 0 {
					ops[engineOp{proc: uint64(pi), seq: e.Seq}] = FlowPoint{Proc: pi, Code: e.Code, TS: e.TS}
				}
			}
		}
	}

	spans := make([]uint64, 0, len(requests))
	for span := range requests {
		spans = append(spans, span)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i] < spans[j] })

	flows := make([]Flow, 0, len(spans))
	for _, span := range spans {
		f := Flow{ID: span, Name: "span", Start: requests[span]}
		admit, hasAdmit := admits[span]
		var end FlowPoint
		hasEnd := false
		if link, ok := links[span]; ok {
			if op, ok := ops[engineOp{proc: link.proc, seq: link.seq}]; ok {
				end, hasEnd = op, true
			}
		}
		switch {
		case hasAdmit && hasEnd:
			f.Steps = []FlowPoint{admit}
			f.End = end
		case hasAdmit:
			f.End = admit
		case hasEnd:
			f.End = end
		default:
			continue // nothing beyond the client: no arrow to draw
		}
		flows = append(flows, f)
	}
	return flows
}
