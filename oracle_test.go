package patree

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
)

// This file is the op-stream oracle. A stream is a sequence of chunks of
// operations; a target is one configuration that runs it — a DB with its
// topology, durability, buffer, API spelling and concurrent readers, or a
// core tree on a simulated device with its profile and queue depth. The
// runner holds every answer of every target to one flat-map model and
// requires every target to write the same transcript.
//
// A chunk is what one batch may hold at once: point operations (a shard
// applies its members in staging order, so repeated keys are fine) and
// syncs, whose answer does not depend on their order. A scan is always
// alone in its chunk: a scattered scan is unordered against point writes
// staged beside it.

// ─── Model ──────────────────────────────────────────────────────────────

// oracleScan is the flat-map reference for Scan: ascending pairs with
// keys in [lo, hi], at most limit (<= 0 = all).
func oracleScan(model map[uint64][]byte, lo, hi uint64, limit int) []KV {
	keys := make([]uint64, 0, len(model))
	for k := range model {
		if k >= lo && k <= hi {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	out := make([]KV, len(keys))
	for i, k := range keys {
		out[i] = KV{Key: k, Value: model[k]}
	}
	return out
}

func checkScan(t *testing.T, label string, got, want []KV) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: scan returned %d pairs, oracle %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Key != want[i].Key || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: scan[%d] = (%d, %q), oracle (%d, %q)",
				label, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// applyModel is the flat-map reference for one operation.
func applyModel(model map[uint64][]byte, op BatchOp) Result {
	old, had := model[op.Key]
	switch op.Kind {
	case OpPut:
		model[op.Key] = op.Value
		return Result{Found: had}
	case OpGet:
		return Result{Found: had, Value: old}
	case OpUpdate:
		if had {
			model[op.Key] = op.Value
		}
		return Result{Found: had}
	case OpDelete:
		delete(model, op.Key)
		return Result{Found: had}
	case OpScan:
		return Result{Pairs: oracleScan(model, op.Key, op.End, op.Limit)}
	}
	return Result{}
}

// describe renders one outcome for comparison. A put's Found (whether it
// replaced a value) is kept only if putFound: the blocking spellings do
// not report it.
func describe(op BatchOp, r Result, putFound bool) string {
	var sb strings.Builder
	found := r.Found && (putFound || op.Kind != OpPut)
	fmt.Fprintf(&sb, "%s(%d,%d,%d) found=%v value=%q pairs=", op.Kind, op.Key, op.End, op.Limit, found, r.Value)
	for _, kv := range r.Pairs {
		fmt.Fprintf(&sb, "%d:%q ", kv.Key, kv.Value)
	}
	return sb.String()
}

// ─── Runner ─────────────────────────────────────────────────────────────

// A target is one configuration that runs a stream.
type target interface {
	fmt.Stringer
	start(t *testing.T) targetRun
}

// A targetRun is one started target. say runs one chunk and returns each
// operation's outcome; end closes the stream (stopping readers, reopening
// where the target does), returns a full-range scan and checks what the
// target reports beside its answers against the final model. putFound
// says whether say reports a put's Found.
type targetRun struct {
	say      func(chunk []BatchOp) ([]Result, error)
	end      func(model map[uint64][]byte) ([]KV, error)
	putFound bool
}

// runOracle runs stream through each target in turn, each on a fresh
// instance, holds every answer and each target's final full scan to the
// model, and requires every transcript to equal the first target's. It
// returns the final model and the transcript. A transcript leaves a put's
// Found out, so targets that do and do not report it compare; where a
// target reports it, the model check holds it.
func runOracle(t *testing.T, stream [][]BatchOp, targets ...target) (map[uint64][]byte, []string) {
	t.Helper()
	var model map[uint64][]byte
	var reference []string
	for ti, tg := range targets {
		model = map[uint64][]byte{}
		var transcript []string
		r := tg.start(t)
		for ci, chunk := range stream {
			got, err := r.say(chunk)
			if err != nil {
				t.Fatalf("%v: chunk %d: %v", tg, ci, err)
			}
			for i, op := range chunk {
				want, line := describe(op, applyModel(model, op), r.putFound), describe(op, got[i], r.putFound)
				if line != want {
					t.Fatalf("%v: chunk %d op %d:\n got  %s\n want %s", tg, ci, i, line, want)
				}
				transcript = append(transcript, describe(op, got[i], false))
			}
		}
		pairs, err := r.end(model)
		if err != nil {
			t.Fatalf("%v: final scan: %v", tg, err)
		}
		checkScan(t, fmt.Sprintf("%v: final", tg), pairs, oracleScan(model, 0, ^uint64(0), 0))
		if ti == 0 {
			reference = transcript
		} else if !reflect.DeepEqual(transcript, reference) {
			t.Fatalf("%v: transcript differs from %v's", tg, targets[0])
		}
	}
	return model, reference
}

// ─── Streams ────────────────────────────────────────────────────────────

// decodeStream reads at most maxOps 4-byte chunks b of a fuzz input, one
// operation each:
// b[0]%6 picks put (0, 1), delete, get, update or scan; the key is
// 1 + b[1]%200 + 7·(b[2]%50) and the value 40 copies of b[3] plus the key
// and the op's index (padded, so a shard fills several leaves); a scan
// covers [b[1], b[1]+3·b[3]] with limit b[2]%5 (0 = all). A b[0] of 0xF0
// or more is a sync. A point op or sync whose b[0] has its top bit set
// joins the chunk before it when that chunk holds no scan, so batch
// spellings commit runs of it at once.
func decodeStream(data []byte, maxOps int) [][]BatchOp {
	var stream [][]BatchOp
	for i := 0; i < len(data)/4 && i < maxOps; i++ {
		b := data[i*4 : i*4+4]
		key := 1 + uint64(b[1])%200 + uint64(b[2])%50*7
		val := append(bytes.Repeat([]byte{b[3]}, 40), byte(key), byte(i))
		var op BatchOp
		switch {
		case b[0] >= 0xF0:
			op = BatchOp{Kind: OpSync}
		case b[0]%6 < 2:
			op = BatchOp{Kind: OpPut, Key: key, Value: val}
		case b[0]%6 == 2:
			op = BatchOp{Kind: OpDelete, Key: key}
		case b[0]%6 == 3:
			op = BatchOp{Kind: OpGet, Key: key}
		case b[0]%6 == 4:
			op = BatchOp{Kind: OpUpdate, Key: key, Value: val}
		default:
			lo := uint64(b[1])
			stream = append(stream, []BatchOp{{Kind: OpScan, Key: lo, End: lo + uint64(b[3])*3, Limit: int(b[2]) % 5}})
			continue
		}
		if n := len(stream); b[0]&0x80 != 0 && n > 0 && stream[n-1][0].Kind != OpScan {
			stream[n-1] = append(stream[n-1], op)
		} else {
			stream = append(stream, []BatchOp{op})
		}
	}
	return stream
}

// randomStream is the property tests' seeded stream over keys 1..1024:
// 30 % puts, 10 % updates, 10 % deletes, 20 % gets, 20 % scans of up to
// 512 keys with a limit of -1..10 (<= 0 = all), and 10 % chunks of 1..24
// mixed point ops. Values name the seed and the op.
func randomStream(seed int64, ops int) [][]BatchOp {
	rng := rand.New(rand.NewSource(seed))
	const space = 1024
	val := func(i int) []byte { return []byte(fmt.Sprintf("s%d.%d", seed, i)) }
	stream := make([][]BatchOp, 0, ops)
	for i := 0; i < ops; i++ {
		key := 1 + uint64(rng.Intn(space))
		var op BatchOp
		switch rng.Intn(10) {
		case 0, 1, 2:
			op = BatchOp{Kind: OpPut, Key: key, Value: val(i)}
		case 3:
			op = BatchOp{Kind: OpUpdate, Key: key, Value: val(i)}
		case 4:
			op = BatchOp{Kind: OpDelete, Key: key}
		case 5, 6:
			op = BatchOp{Kind: OpGet, Key: key}
		case 7, 8:
			lo := uint64(rng.Intn(space))
			hi := lo + uint64(rng.Intn(space/2))
			op = BatchOp{Kind: OpScan, Key: lo, End: hi, Limit: rng.Intn(12) - 1}
		default:
			chunk := make([]BatchOp, 1+rng.Intn(24))
			for j := range chunk {
				k := 1 + uint64(rng.Intn(space))
				switch rng.Intn(4) {
				case 0:
					chunk[j] = BatchOp{Kind: OpPut, Key: k, Value: val(i*1000 + j)}
				case 1:
					chunk[j] = BatchOp{Kind: OpGet, Key: k}
				case 2:
					chunk[j] = BatchOp{Kind: OpDelete, Key: k}
				default:
					chunk[j] = BatchOp{Kind: OpUpdate, Key: k, Value: val(i*1000 + j)}
				}
			}
			rng.Intn(2) // unused; drawn so each seed keeps its op sequence
			stream = append(stream, chunk)
			continue
		}
		stream = append(stream, []BatchOp{op})
	}
	return stream
}

// spellingStream is a seeded stream of 120 chunks over keys 0..199: runs
// of up to nine point ops, lone scans and lone syncs.
func spellingStream(seed int64) [][]BatchOp {
	rng := rand.New(rand.NewSource(seed))
	var chunks [][]BatchOp
	for len(chunks) < 120 {
		switch rng.Intn(5) {
		case 0:
			lo := uint64(rng.Intn(200))
			chunks = append(chunks, []BatchOp{{Kind: OpScan, Key: lo, End: lo + uint64(rng.Intn(80)), Limit: rng.Intn(12)}})
		case 1:
			chunks = append(chunks, []BatchOp{{Kind: OpSync}})
		default:
			chunk := make([]BatchOp, 1+rng.Intn(9))
			for i := range chunk {
				key := uint64(rng.Intn(200))
				val := []byte(fmt.Sprintf("s%d-%d-%d", seed, len(chunks), i))
				chunk[i] = []BatchOp{
					{Kind: OpPut, Key: key, Value: val},
					{Kind: OpPut, Key: key, Value: val},
					{Kind: OpGet, Key: key},
					{Kind: OpGet, Key: key},
					{Kind: OpUpdate, Key: key, Value: val},
					{Kind: OpDelete, Key: key},
				}[rng.Intn(6)]
			}
			chunks = append(chunks, chunk)
		}
	}
	return chunks
}

// putStream puts keys 1..n in order, value "v<key>", one per chunk.
func putStream(n int) [][]BatchOp {
	stream := make([][]BatchOp, n)
	for k := range stream {
		stream[k] = []BatchOp{{Kind: OpPut, Key: uint64(k + 1), Value: []byte(fmt.Sprintf("v%d", k+1))}}
	}
	return stream
}

// ─── Spellings ──────────────────────────────────────────────────────────

// A spelling runs one chunk through one public way of saying it and
// returns each operation's outcome. Single-op spellings run the chunk one
// operation after the other; batch spellings stage it whole and commit
// once. putFound says whether the spelling reports a put's Found.
type spelling struct {
	name     string
	run      func(db *DB, chunk []BatchOp) ([]Result, error)
	putFound bool
}

func each(chunk []BatchOp, one func(BatchOp) Result) ([]Result, error) {
	out := make([]Result, len(chunk))
	for i, op := range chunk {
		out[i] = one(op)
		if out[i].Err != nil {
			return nil, out[i].Err
		}
	}
	return out, nil
}

func viaBatch(db *DB, chunk []BatchOp, commit func(*Batch) error) ([]Result, error) {
	b := db.NewBatch()
	defer b.Release()
	for _, op := range chunk {
		switch op.Kind {
		case OpPut:
			b.Put(op.Key, op.Value)
		case OpGet:
			b.Get(op.Key)
		case OpUpdate:
			b.Update(op.Key, op.Value)
		case OpDelete:
			b.Delete(op.Key)
		case OpScan:
			b.Scan(op.Key, op.End, op.Limit)
		case OpSync:
			b.Sync()
		}
	}
	if err := commit(b); err != nil {
		return nil, err
	}
	if err := b.Wait(); err != nil {
		return nil, err
	}
	out := make([]Result, len(chunk))
	for i := range chunk {
		out[i] = Result{Found: b.Found(i), Value: b.Value(i), Pairs: b.Pairs(i)}
	}
	return out, nil
}

func tryCommit(b *Batch) error {
	for {
		if err := b.TryCommit(); !errors.Is(err, ErrBacklog) {
			return err
		}
	}
}

func fromHandle(h *Handle, err error) Result {
	if err != nil {
		return Result{Err: err}
	}
	defer h.Release()
	return Result{Found: h.Found(), Value: h.Value(), Pairs: h.Pairs(), Err: h.Err()}
}

// blocking says a chunk with the blocking calls, one op after the other.
func blocking(db *DB, chunk []BatchOp) ([]Result, error) {
	return each(chunk, func(op BatchOp) (r Result) {
		switch op.Kind {
		case OpPut:
			r.Err = db.Put(op.Key, op.Value)
		case OpGet:
			r.Value, r.Found, r.Err = db.Get(op.Key)
		case OpUpdate:
			r.Found, r.Err = db.Update(op.Key, op.Value)
		case OpDelete:
			r.Found, r.Err = db.Delete(op.Key)
		case OpScan:
			r.Pairs, r.Err = db.Scan(op.Key, op.End, op.Limit)
		case OpSync:
			r.Err = db.Sync()
		}
		return r
	})
}

var spellings = []spelling{
	{"blocking", blocking, false},
	{"async", func(db *DB, chunk []BatchOp) ([]Result, error) {
		return each(chunk, func(op BatchOp) Result {
			switch op.Kind {
			case OpPut:
				return fromHandle(db.PutAsync(op.Key, op.Value))
			case OpGet:
				return fromHandle(db.GetAsync(op.Key))
			case OpUpdate:
				return fromHandle(db.UpdateAsync(op.Key, op.Value))
			case OpDelete:
				return fromHandle(db.DeleteAsync(op.Key))
			case OpScan:
				return fromHandle(db.ScanAsync(op.Key, op.End, op.Limit))
			}
			return fromHandle(db.SyncAsync())
		})
	}, true},
	{"context", func(db *DB, chunk []BatchOp) ([]Result, error) {
		ctx := context.Background()
		return each(chunk, func(op BatchOp) (r Result) {
			switch op.Kind {
			case OpPut:
				r.Err = db.PutContext(ctx, op.Key, op.Value)
			case OpGet:
				r.Value, r.Found, r.Err = db.GetContext(ctx, op.Key)
			case OpUpdate:
				r.Found, r.Err = db.UpdateContext(ctx, op.Key, op.Value)
			case OpDelete:
				r.Found, r.Err = db.DeleteContext(ctx, op.Key)
			case OpScan:
				r.Pairs, r.Err = db.ScanContext(ctx, op.Key, op.End, op.Limit)
			case OpSync:
				r.Err = db.SyncContext(ctx)
			}
			return r
		})
	}, false},
	{"batch-commit", func(db *DB, chunk []BatchOp) ([]Result, error) {
		return viaBatch(db, chunk, (*Batch).Commit)
	}, true},
	{"batch-trycommit", func(db *DB, chunk []BatchOp) ([]Result, error) {
		return viaBatch(db, chunk, tryCommit)
	}, true},
	mixed,
}

// mixed says a one-op chunk with the blocking calls and a longer one as a
// batch, committed with Commit or TryCommit by its first key's parity.
var mixed = spelling{"mixed", func(db *DB, chunk []BatchOp) ([]Result, error) {
	switch {
	case len(chunk) == 1:
		return blocking(db, chunk)
	case chunk[0].Key%2 == 0:
		return viaBatch(db, chunk, tryCommit)
	}
	return viaBatch(db, chunk, (*Batch).Commit)
}, false}

// ─── Targets ────────────────────────────────────────────────────────────

// dbTarget runs a stream through the public API of a DB over its own RAM
// devices.
type dbTarget struct {
	shards, devices int   // devices <= shards, each of 1<<15 blocks
	placement       []int // shard i on device placement[i]; nil = round robin
	journal, weak   bool
	buffer          int
	sp              spelling
	along           bool // readAlong races the stream until its end
	reopen          bool // close and reopen, strong, before the final scan
	// check, if set, runs after the final scan on the open DB.
	check func(t *testing.T, db *DB, model map[uint64][]byte)
}

func (d dbTarget) String() string {
	return fmt.Sprintf("db{shards=%d devices=%d journal=%v weak=%v buffer=%d %s along=%v reopen=%v}",
		d.shards, d.devices, d.journal, d.weak, d.buffer, d.sp.name, d.along, d.reopen)
}

func (d dbTarget) start(t *testing.T) targetRun {
	opts := Options{
		Devices:     ramDevices(t, d.devices, 1<<15),
		Shards:      d.shards,
		Placement:   d.placement,
		Journal:     d.journal,
		BufferPages: d.buffer,
	}
	if d.weak {
		opts.Persistence = Weak
	}
	open := func() *DB {
		db, err := Open(opts)
		if err != nil {
			t.Fatalf("%v: open: %v", d, err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	db := open()
	stop := func() {}
	if d.along {
		stop = readAlong(t, db)
	}
	return targetRun{
		say:      func(chunk []BatchOp) ([]Result, error) { return d.sp.run(db, chunk) },
		putFound: d.sp.putFound,
		end: func(model map[uint64][]byte) ([]KV, error) {
			stop()
			if d.reopen {
				if err := db.Close(); err != nil {
					return nil, err
				}
				opts.Persistence = Strong
				db = open()
			}
			pairs, err := db.Scan(0, ^uint64(0), 0)
			if err == nil && d.check != nil {
				d.check(t, db, model)
			}
			return pairs, err
		},
	}
}

// coreTarget runs a stream on a core.Tree over a simulated device, every
// op of a chunk admitted at once. The zero value is the paper's profile:
// the zero Config, strong and unbuffered.
type coreTarget struct {
	pipelined     bool // the serving profile: scan read-ahead
	weak, journal bool
	queueDepth    int // 0 = the default
	buffer        int
	// trace, if set, receives the tree's Chrome trace after the stream.
	trace *bytes.Buffer
}

func (c coreTarget) String() string {
	return fmt.Sprintf("core{pipelined=%v weak=%v journal=%v queue=%d buffer=%d}",
		c.pipelined, c.weak, c.journal, c.queueDepth, c.buffer)
}

func (c coreTarget) start(t *testing.T) targetRun {
	eng := sim.NewEngine()
	sd := nvme.NewSimDevice(eng, nvme.SimConfig{Seed: 99, NumBlocks: 1 << 13})
	meta, err := core.Format(sd)
	if err != nil {
		t.Fatalf("%v: format: %v", c, err)
	}
	cfg := core.Config{Journal: c.journal, QueueDepth: c.queueDepth, BufferPages: c.buffer, Pipelined: c.pipelined}
	if c.weak {
		cfg.Persistence = core.WeakPersistence
	}
	if c.trace != nil {
		cfg.Tracer = core.NewTracer(1 << 16)
	}
	osched := simos.New(eng, simos.Config{})
	var tree *core.Tree
	th := osched.Spawn("patree", func(*simos.Thread) { tree.Run() })
	if tree, err = core.New(sd, cfg, core.SimEnv{T: th}, meta); err != nil {
		t.Fatalf("%v: new: %v", c, err)
	}
	t.Cleanup(func() {
		tree.Stop()
		eng.RunFor(time.Second)
	})
	// say admits the chunk and steps the simulation until every op is
	// done. The worker busy-polls while ops are live, so a stranded op
	// shows up as an endless run, not an idle engine: bound the steps.
	say := func(chunk []BatchOp) ([]Result, error) {
		ops := make([]*core.Op, len(chunk))
		open := len(chunk)
		for i, bo := range chunk {
			switch bo.Kind {
			case OpPut:
				ops[i] = core.NewInsert(bo.Key, bo.Value, nil)
			case OpGet:
				ops[i] = core.NewSearch(bo.Key, nil)
			case OpUpdate:
				ops[i] = core.NewUpdate(bo.Key, bo.Value, nil)
			case OpDelete:
				ops[i] = core.NewDelete(bo.Key, nil)
			case OpScan:
				ops[i] = core.NewRange(bo.Key, bo.End, bo.Limit, nil)
			default:
				ops[i] = core.NewSync(nil)
			}
			ops[i].Done = func(*core.Op) { open-- }
		}
		eng.After(0, func() {
			for _, op := range ops {
				tree.Admit(op)
			}
		})
		for steps := 0; open > 0; steps++ {
			if steps == 20_000_000 || !eng.Step() {
				return nil, fmt.Errorf("simulation wedged with %d of %d ops open", open, len(chunk))
			}
		}
		out := make([]Result, len(chunk))
		for i, op := range ops {
			if op.Res.Err != nil {
				return nil, op.Res.Err
			}
			out[i] = Result{Found: op.Res.Found, Value: op.Res.Value, Pairs: op.Res.Pairs}
		}
		return out, nil
	}
	return targetRun{
		say:      say,
		putFound: true,
		end: func(map[uint64][]byte) ([]KV, error) {
			res, err := say([]BatchOp{{Kind: OpScan, End: ^uint64(0)}})
			if err != nil {
				return nil, err
			}
			if c.trace != nil {
				if err := cfg.Tracer.WriteChromeJSON(c.trace, cfg.Tracer.Events()); err != nil {
					return nil, err
				}
			}
			return res[0].Pairs, nil
		},
	}
}

// ─── Fuzzing ────────────────────────────────────────────────────────────

// dbTargetOf decodes a DB configuration from two bytes.
func dbTargetOf(lo, hi byte) dbTarget {
	x := int(lo) | int(hi)<<8
	d := dbTarget{
		shards:  []int{1, 2, 4, 8}[x&3],
		devices: 1 + x>>2&1,
		journal: x>>3&1 == 1,
		weak:    x>>4&1 == 1,
		buffer:  []int{8, 512, 1024}[(x>>5&3)%3],
		sp:      spellings[(x>>7&7)%len(spellings)],
		along:   x>>10&1 == 1,
		reopen:  x>>11&1 == 1,
	}
	d.devices = min(d.devices, d.shards)
	return d
}

// coreTargetOf decodes a core configuration from one byte.
func coreTargetOf(b byte) coreTarget {
	return coreTarget{
		pipelined:  b&1 == 1,
		weak:       b>>1&1 == 1,
		journal:    b>>2&1 == 1,
		queueDepth: []int{0, 6, 16, 64}[b>>3&3],
		buffer:     []int{0, 8, 32, 512}[b>>5&3],
	}
}

// addStreamSeeds adds the seed streams the DB fuzzers share.
func addStreamSeeds(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 1, 0, 1, 5, 2, 0, 1, 0})
	f.Add([]byte{4, 1, 0, 3, 0, 1, 0, 7, 3, 0, 0, 0, 2, 1, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 2, 3, 9, 1, 2, 3, 0, 4, 0, 200, 3}, 30))
}

// fuzzOracle runs the stream of a fuzz input's first maxOps chunks
// through targets.
func fuzzOracle(t *testing.T, data []byte, maxOps int, targets ...target) {
	stream := decodeStream(data, maxOps)
	if len(stream) == 0 {
		t.Skip()
	}
	runOracle(t, stream, targets...)
}

// FuzzOracle makes the configuration a fuzz input: the first four bytes
// choose a DB target (two bytes) and two core targets (one byte each),
// and the rest is the stream every one of them must answer alike.
func FuzzOracle(f *testing.F) {
	f.Add([]byte{0x02, 0x00, 0x00, 0x01, 0, 0, 1, 5, 1, 0, 1, 5, 2, 0, 1, 0})
	f.Add([]byte{0xAF, 0x0D, 0x36, 0x2F, 4, 1, 0, 3, 0, 1, 0, 7, 0x83, 0, 0, 0, 2, 1, 0, 0, 0xF0, 0, 0, 0})
	f.Add(append([]byte{0x7E, 0x0B, 0x2E, 0x2B}, bytes.Repeat([]byte{0, 2, 3, 9, 0x81, 2, 3, 0, 4, 0, 200, 3, 0xF3, 0, 0, 0}, 24)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		fuzzOracle(t, data[4:], 400, dbTargetOf(data[0], data[1]), coreTargetOf(data[2]), coreTargetOf(data[3]))
	})
}

// FuzzTreeOps runs each input's first 600 chunks on two journaled weak
// core trees with an 8-page buffer, the paper's classic loop and the
// serving profile's scan read-ahead, which must answer every op alike.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 1, 0, 1, 5, 2, 0, 1, 0})
	f.Add([]byte{0, 1, 0, 3, 0, 1, 0, 7, 3, 0, 0, 0, 2, 1, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 2, 3, 9, 1, 2, 3, 0}, 40))
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
	// Ascending inserts lay leaves out on adjacent pages that an 8-page
	// buffer cannot hold, so the scans after them read multi-page runs.
	f.Add(func() []byte {
		var in []byte
		for k := 0; k < 200; k++ {
			in = append(in, 0, byte(k), 0, byte(k))
		}
		for k := 0; k < 8; k++ {
			in = append(in, 5, byte(k*25), 0, 60)
		}
		return in
	}())
	f.Fuzz(func(t *testing.T, data []byte) {
		classic := coreTarget{weak: true, journal: true, buffer: 8}
		pipelined := classic
		pipelined.pipelined = true
		fuzzOracle(t, data, 600, classic, pipelined)
	})
}

// TestOracleWeakSyncFullQueue runs a weak unjournaled tree whose 32-page
// buffer holds more dirty pages than its six-slot submission queue. Each
// chunk is 200 inserts with a sync after every 40 and ten gets, admitted
// at once, so one sync's page writes fill the queue while another's meet
// it full with none of its own in flight to reschedule it. It must answer
// alike at the default queue depth, and two same-seed runs must write
// byte-identical traces.
func TestOracleWeakSyncFullQueue(t *testing.T) {
	var stream [][]BatchOp
	for c := 0; c < 3; c++ {
		var chunk []BatchOp
		for i := 200*c + 1; i <= 200*c+200; i++ {
			chunk = append(chunk, BatchOp{Kind: OpPut, Key: uint64(i%400 + 1), Value: []byte(fmt.Sprintf("value-%d", i))})
			if i%40 == 0 {
				chunk = append(chunk, BatchOp{Kind: OpSync})
			}
		}
		for k := 0; k < 10; k++ {
			chunk = append(chunk, BatchOp{Kind: OpGet, Key: uint64(37*(c+k)%400 + 1)})
		}
		stream = append(stream, chunk, []BatchOp{{Kind: OpScan, Key: uint64(100 * c), End: uint64(100*c + 60)}})
	}
	full := coreTarget{weak: true, buffer: 32, queueDepth: 6, trace: new(bytes.Buffer)}
	again := full
	again.trace = new(bytes.Buffer)
	roomy := full
	roomy.queueDepth, roomy.trace = 0, nil
	runOracle(t, stream, full, again, roomy)
	if full.trace.Len() == 0 || !bytes.Equal(full.trace.Bytes(), again.trace.Bytes()) {
		t.Fatalf("same-seed traces differ (%d vs %d bytes)", full.trace.Len(), again.trace.Len())
	}
}
