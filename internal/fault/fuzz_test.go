package fault

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
)

// FuzzTreeOps decodes the fuzzer's byte stream into a tree operation
// sequence and cross-checks every result against an in-memory model —
// the same oracle idea as the stress harness, but driven by
// coverage-guided input mutation instead of seeded randomness. Each
// input runs under both profiles at once: the paper's classic loop and
// the serving profile's scan read-ahead (Config.Pipelined), which must
// answer every op alike. The trees run journaled over deterministic
// simulated devices, so any corpus file that trips an assertion replays
// exactly.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 1, 0, 1, 5, 2, 0, 1, 0})
	f.Add([]byte{0, 1, 0, 3, 0, 1, 0, 7, 3, 0, 0, 0, 2, 1, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 2, 3, 9, 1, 2, 3, 0}, 40))
	// Ascending inserts lay leaves out on adjacent pages that an 8-page
	// buffer cannot hold, so the scans after them read multi-page runs.
	f.Add(func() []byte {
		var in []byte
		for k := 0; k < 256; k++ {
			in = append(in, 0, byte(k), 0, byte(k))
		}
		for k := 0; k < 8; k++ {
			in = append(in, 4, 0, 0, 0, 3, byte(k*31), 0, 0)
		}
		return in
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		const chunk = 4
		ops := len(data) / chunk
		if ops == 0 {
			t.Skip()
		}
		if ops > 600 {
			ops = 600
		}
		classic, pipelined := fuzzTree(t, false), fuzzTree(t, true)
		// do runs the op mk builds under both profiles and returns the
		// answer they agree on.
		do := func(mk func() *core.Op) core.Result {
			res, on := classic(mk()), pipelined(mk())
			if res.Found != on.Found || !bytes.Equal(res.Value, on.Value) ||
				!reflect.DeepEqual(res.Pairs, on.Pairs) || (res.Err == nil) != (on.Err == nil) {
				t.Fatalf("profiles disagree: classic %+v, pipelined %+v", res, on)
			}
			return res
		}

		model := map[uint64][]byte{}
		for i := 0; i < ops; i++ {
			b := data[i*chunk : (i+1)*chunk]
			key := 1 + uint64(binary.LittleEndian.Uint16(b[1:3]))%256
			val := []byte{b[3], byte(key), byte(i)}
			switch b[0] % 5 {
			case 0, 1: // insert (upsert)
				_, existed := model[key]
				res := do(func() *core.Op { return core.NewInsert(key, val, nil) })
				if res.Err != nil {
					t.Fatalf("op %d: insert %d: %v", i, key, res.Err)
				}
				if res.Found != existed {
					t.Fatalf("op %d: insert %d replaced=%v, model %v", i, key, res.Found, existed)
				}
				model[key] = append([]byte(nil), val...)
			case 2: // delete
				_, existed := model[key]
				res := do(func() *core.Op { return core.NewDelete(key, nil) })
				if res.Err != nil {
					t.Fatalf("op %d: delete %d: %v", i, key, res.Err)
				}
				if res.Found != existed {
					t.Fatalf("op %d: delete %d found=%v, model %v", i, key, res.Found, existed)
				}
				delete(model, key)
			case 3: // search
				want, existed := model[key]
				res := do(func() *core.Op { return core.NewSearch(key, nil) })
				if res.Err != nil {
					t.Fatalf("op %d: search %d: %v", i, key, res.Err)
				}
				if res.Found != existed || (existed && !bytes.Equal(res.Value, want)) {
					t.Fatalf("op %d: search %d = %q/%v, model %q/%v", i, key, res.Value, res.Found, want, existed)
				}
			default: // range scan across the whole model
				res := do(func() *core.Op { return core.NewRange(0, ^uint64(0), 0, nil) })
				if res.Err != nil {
					t.Fatalf("op %d: scan: %v", i, res.Err)
				}
				if len(res.Pairs) != len(model) {
					t.Fatalf("op %d: scan saw %d keys, model %d", i, len(res.Pairs), len(model))
				}
				keys := make([]uint64, 0, len(model))
				for k := range model {
					keys = append(keys, k)
				}
				sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
				for j, kv := range res.Pairs {
					if kv.Key != keys[j] || !bytes.Equal(kv.Value, model[kv.Key]) {
						t.Fatalf("op %d: scan[%d] = %d/%q, model %d/%q",
							i, j, kv.Key, kv.Value, keys[j], model[keys[j]])
					}
				}
			}
		}
		// Final pass: everything the model holds must be in the tree.
		for k, want := range model {
			res := do(func() *core.Op { return core.NewSearch(k, nil) })
			if res.Err != nil || !res.Found || !bytes.Equal(res.Value, want) {
				t.Fatalf("final: key %d = %q/%v (err %v), model %q", k, res.Value, res.Found, res.Err, want)
			}
		}
	})
}

// fuzzTree starts a journaled tree over its own simulated device, with
// scan read-ahead on or off, and returns a function that runs one op on
// it to completion.
func fuzzTree(t *testing.T, pipelined bool) func(*core.Op) core.Result {
	eng := sim.NewEngine()
	sd := nvme.NewSimDevice(eng, nvme.SimConfig{Seed: 99, NumBlocks: 1 << 13})
	meta, err := core.Format(sd)
	if err != nil {
		t.Fatalf("format: %v", err)
	}
	osched := simos.New(eng, simos.Config{})
	var tree *core.Tree
	th := osched.Spawn("patree", func(*simos.Thread) { tree.Run() })
	tree, err = core.New(sd, core.Config{
		Persistence: core.WeakPersistence,
		BufferPages: 8,
		Journal:     true,
		Pipelined:   pipelined,
	}, core.SimEnv{T: th}, meta)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	t.Cleanup(func() {
		tree.Stop()
		eng.RunFor(time.Second)
	})
	return func(op *core.Op) core.Result {
		done := false
		op.Done = func(*core.Op) { done = true }
		eng.After(0, func() { tree.Admit(op) })
		for !done {
			if !eng.Step() {
				t.Fatal("simulation wedged")
			}
		}
		return op.Res
	}
}
