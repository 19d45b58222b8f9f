package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/patree/patree/internal/sim"
)

// TestPipelinedWithoutBufferTerminates runs a mixed op stream, scans
// included, to completion under Pipelined with no buffer. A read-ahead
// has nowhere to become resident there, so none may be issued; the run
// is bounded by virtual time so a relapse that wedges fails instead of
// hanging the suite.
func TestPipelinedWithoutBufferTerminates(t *testing.T) {
	for _, journal := range []bool{false, true} {
		t.Run(fmt.Sprintf("journal=%v", journal), func(t *testing.T) {
			cfg := Config{Pipelined: true, BufferPages: 0}
			r := newRig(t, cfg)
			if journal {
				r = newJournalRig(t, cfg, 1<<16)
			}
			rng := sim.NewRNG(7)
			model := map[uint64]string{}
			var ops []*Op
			for i := 0; i < 600; i++ {
				k := rng.Uint64n(300)
				switch rng.Uint64n(5) {
				case 0:
					ops = append(ops, NewSearch(k, nil))
				case 1:
					ops = append(ops, NewDelete(k, nil))
					delete(model, k)
				case 2:
					ops = append(ops, NewRange(k, k+20, 0, nil))
				default:
					v := fmt.Sprintf("v%d", i)
					ops = append(ops, NewInsert(k, []byte(v), nil))
					model[k] = v
				}
			}
			ops = append(ops, NewSync(nil))
			// drive admits ops together and steps the simulation until all
			// complete or two virtual seconds pass.
			drive := func(ops []*Op) {
				t.Helper()
				remaining := len(ops)
				for _, op := range ops {
					op.Done = func(*Op) { remaining-- }
				}
				r.eng.After(0, func() {
					for _, op := range ops {
						r.tree.Admit(op)
					}
				})
				deadline := r.eng.Now().Add(2 * time.Second)
				for remaining > 0 && r.eng.Now() < deadline && r.eng.Step() {
				}
				if remaining > 0 {
					t.Fatalf("%d of %d operations still running after 2 s of virtual time", remaining, len(ops))
				}
			}
			drive(ops)
			reads := make([]*Op, 300)
			for k := range reads {
				reads[k] = NewSearch(uint64(k), nil)
			}
			drive(reads)
			for k, op := range reads {
				if want, ok := model[uint64(k)]; op.Res.Found != ok || string(op.Res.Value) != want {
					t.Fatalf("key %d: found=%v value=%q, model has %q (present=%v)", k, op.Res.Found, op.Res.Value, want, ok)
				}
			}
			if st := r.tree.StatsSnapshot(); st.ReadAheads != 0 {
				t.Fatalf("read-ahead must be inert without a buffer, issued %d reads", st.ReadAheads)
			}
		})
	}
}
