package patree

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/fault"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
)

// This file is the crash oracle. Its input is a topology (crashTarget), a
// stream in the op-stream oracle's type and a crash schedule; runCrash
// drives the stream, crashes a device at each point of the schedule,
// recovers every shard and holds answers and images to one model. The
// crash suites are fixed inputs to it, and FuzzOracle draws the rest.

// ─── Model ──────────────────────────────────────────────────────────────

// ambState is one state a failed op may have left its key in.
type ambState struct {
	present bool
	val     []byte
}

// crashModel holds the acked state and, per key, the states the failed
// ops on it since its last acked write may have left.
type crashModel struct {
	acked map[uint64][]byte
	amb   map[uint64][]ambState
}

// accepts reports whether a key's state is the acked one or one a failed
// op explains.
func (m *crashModel) accepts(key uint64, val []byte, present bool) bool {
	want, ok := m.acked[key]
	if present == ok && (!present || bytes.Equal(val, want)) {
		return true
	}
	for _, a := range m.amb[key] {
		if present == a.present && (!present || bytes.Equal(val, a.val)) {
			return true
		}
	}
	return false
}

// ambiguous reports whether a failed op left a key op reads or writes
// ambiguous; for a scan, any key.
func (m *crashModel) ambiguous(op BatchOp) bool {
	if op.Kind == OpScan {
		return len(m.amb) > 0
	}
	return len(m.amb[op.Key]) > 0
}

// settle folds one resolved chunk into the model in chunk order. An
// answer must match the model where no failed op left its keys
// ambiguous, and a get must see a state some op explains where one did.
func (m *crashModel) settle(chunk []BatchOp, got []Result) error {
	for i, op := range chunk {
		r := got[i]
		write := op.Kind == OpPut || op.Kind == OpUpdate || op.Kind == OpDelete
		switch {
		case r.Err != nil:
			if write {
				m.amb[op.Key] = append(m.amb[op.Key], ambState{present: op.Kind != OpDelete, val: op.Value})
			}
		case !m.ambiguous(op):
			if line, want := describe(op, r, true), describe(op, applyModel(m.acked, op), true); line != want {
				return fmt.Errorf("op %d:\n got  %s\n want %s", i, line, want)
			}
		case op.Kind == OpGet:
			if !m.accepts(op.Key, r.Value, r.Found) {
				return fmt.Errorf("op %d: get %d = %q (found=%v), which no acked or failed op explains", i, op.Key, r.Value, r.Found)
			}
		case write && (op.Kind != OpUpdate || r.Found):
			applyModel(m.acked, op)
			delete(m.amb, op.Key)
		}
	}
	return nil
}

// verify holds a recovered image to the model — every acked write
// survives, and no key appears that no op explains, so a batch whose
// members were all acked is never torn — then adopts it.
func (m *crashModel) verify(pairs map[uint64][]byte) error {
	for k, v := range m.acked {
		if got, ok := pairs[k]; !m.accepts(k, got, ok) {
			return fmt.Errorf("acked key %d lost or mangled: image %q (present=%v), model %q, %d failed ops on it",
				k, got, ok, v, len(m.amb[k]))
		}
	}
	for k, got := range pairs {
		if _, ok := m.acked[k]; !ok && !m.accepts(k, got, true) {
			return fmt.Errorf("phantom key %d = %q: never acked, and no failed op explains it", k, got)
		}
	}
	m.acked, m.amb = pairs, map[uint64][]ambState{}
	return nil
}

// ─── Targets ────────────────────────────────────────────────────────────

// crashTarget is a topology for the crash runner: shards journaled core
// trees placed round robin over devices simulated devices of 1<<14 blocks
// in all, each device behind its own fault wrapper.
type crashTarget struct {
	shards, devices int
	weak            bool
	queueDepth      int // 0 = the default
	buffer          int // BufferPages per shard
	// probs are injected by the device a phase crashes; the others and
	// the last phase inject none, so their closing syncs succeed.
	probs  fault.Probs
	window int // a chunk is admitted once the one window before it resolved
}

// crashPoint crashes device dev once the phase has resolved at ops.
type crashPoint struct{ at, dev int }

// carve places the shards on devs as Open does: a lone shard uses its
// device whole, more are cut by nvme.ShardPartitions.
func carve[D nvme.Device](t *testing.T, c crashTarget, ds []D) []nvme.Device {
	devs := make([]nvme.Device, len(ds))
	for i, d := range ds {
		devs[i] = d
	}
	if c.shards == 1 {
		return devs
	}
	parts, err := nvme.ShardPartitions(devs, c.shards)
	if err != nil {
		t.Fatalf("crash%+v: %v", c, err)
	}
	devs = make([]nvme.Device, len(parts))
	for i, p := range parts {
		devs[i] = p
	}
	return devs
}

// mount builds the target's devices on eng, holding imgs, and its shards
// on them. Without images it formats every shard with the identity Open
// records (a lone shard is shard 0 of 0, one device is device 0 of 0).
// Otherwise it recovers each shard, checks that it kept its identity
// and, on a device closed cleanly (clean[d]), redid no pages, and walks
// the images into one map of the shards' pairs.
func (c crashTarget) mount(t *testing.T, label string, eng *sim.Engine, seed uint64, imgs []map[uint64][]byte,
	clean []bool, digest *strings.Builder) ([]*nvme.SimDevice, []*storage.Meta, map[uint64][]byte) {
	t.Helper()
	sds := make([]*nvme.SimDevice, c.devices)
	for d := range sds {
		sds[d] = nvme.NewSimDevice(eng, nvme.SimConfig{Seed: seed + uint64(d)*131071, NumBlocks: 1 << 14 / uint64(c.devices)})
		if imgs != nil {
			sds[d].LoadImage(imgs[d])
		}
	}
	metas := make([]*storage.Meta, c.shards)
	pairs := map[uint64][]byte{}
	for i, p := range carve(t, c, sds) {
		var id, count, devID, devCount uint16
		if c.shards > 1 {
			id, count = uint16(i), uint16(c.shards)
		}
		if c.devices > 1 {
			devID, devCount = uint16(i%c.devices), uint16(c.devices)
		}
		var err error
		if imgs == nil {
			if metas[i], err = core.FormatShardDevice(p, id, count, devID, devCount); err != nil {
				t.Fatalf("%s: format shard %d: %v", label, i, err)
			}
			continue
		}
		m, rep, err := core.Recover(p)
		switch {
		case err != nil:
			t.Fatalf("%s: recover shard %d: %v", label, i, err)
		case clean[i%c.devices] && rep.PagesRedone != 0:
			t.Fatalf("%s: shard %d on cleanly closed device %d redid %d pages", label, i, i%c.devices, rep.PagesRedone)
		case m.ShardID != id || m.ShardCount != count || m.DeviceID != devID || m.DeviceCount != devCount:
			t.Fatalf("%s: shard %d recovered as shard %d/%d on device %d/%d, want %d/%d on %d/%d", label, i,
				m.ShardID, m.ShardCount, m.DeviceID, m.DeviceCount, id, count, devID, devCount)
		}
		fmt.Fprintf(digest, "%s shard=%d %+v\n", label, i, *rep)
		var base uint64
		if p, ok := p.(*nvme.Partition); ok {
			base = p.Start()
		}
		c.walk(t, fmt.Sprintf("%s shard %d", label, i), i, m, sds[i%c.devices], base, pairs)
		metas[i] = m
	}
	return sds, metas, pairs
}

// walk reads shard's tree from sd, where its page 0 is block base, into
// pairs. Every page must decode, levels step down by one from the root
// the meta names, an inner page has one child more than keys, keys
// strictly ascend along the leaf chain, and a key sits on the shard
// core.ShardOf names (so on no other).
func (c crashTarget) walk(t *testing.T, label string, shard int, meta *storage.Meta, sd *nvme.SimDevice, base uint64, pairs map[uint64][]byte) {
	t.Helper()
	page := func(id storage.PageID) *storage.Node {
		buf := make([]byte, storage.PageSize)
		sd.ReadAt(base+uint64(id), buf)
		if !storage.VerifyPage(id, buf) {
			t.Fatalf("%s: page %d fails verification", label, id)
		}
		n, err := storage.DecodeNode(id, buf)
		if err != nil {
			t.Fatalf("%s: page %d unreadable: %v", label, id, err)
		}
		return n
	}
	n := page(meta.Root)
	if int(n.Level)+1 != int(meta.Height) {
		t.Fatalf("%s: root level %d, height %d", label, n.Level, meta.Height)
	}
	for !n.IsLeaf() {
		if len(n.Children) != len(n.Keys)+1 {
			t.Fatalf("%s: inner page %d has %d keys, %d children", label, n.ID, len(n.Keys), len(n.Children))
		}
		child := page(n.Children[0])
		if child.Level != n.Level-1 {
			t.Fatalf("%s: page %d at level %d has a child at level %d", label, n.ID, n.Level, child.Level)
		}
		n = child
	}
	var last uint64
	for first := true; ; {
		for j, k := range n.Keys {
			if !first && k <= last {
				t.Fatalf("%s: leaf %d: key %d after %d", label, n.ID, k, last)
			}
			if s := core.ShardOf(k, c.shards); s != shard {
				t.Fatalf("%s: key %d is on shard %d, ShardOf says %d", label, k, shard, s)
			}
			first, last = false, k
			pairs[k] = append([]byte(nil), n.Vals[j]...)
		}
		if n.Next == storage.NilPage {
			return
		}
		if n = page(n.Next); !n.IsLeaf() {
			t.Fatalf("%s: leaf chain reaches inner page %d", label, n.ID)
		}
	}
}

// ─── Runner ─────────────────────────────────────────────────────────────

// coreOp is a core op that runs bo on one tree.
func coreOp(bo BatchOp) *core.Op {
	switch bo.Kind {
	case OpPut:
		return core.NewInsert(bo.Key, bo.Value, nil)
	case OpGet:
		return core.NewSearch(bo.Key, nil)
	case OpUpdate:
		return core.NewUpdate(bo.Key, bo.Value, nil)
	case OpDelete:
		return core.NewDelete(bo.Key, nil)
	case OpScan:
		return core.NewRange(bo.Key, bo.End, bo.Limit, nil)
	}
	return core.NewSync(nil)
}

// merged is bo's outcome from its ops on the shards: a scan's pairs are
// merged and cut to its limit, and any op's error fails it.
func merged(bo BatchOp, ops []*core.Op) Result {
	r := Result{Found: ops[0].Res.Found, Value: ops[0].Res.Value}
	for _, op := range ops {
		if op.Res.Err != nil {
			return Result{Err: op.Res.Err}
		}
		r.Pairs = append(r.Pairs, op.Res.Pairs...)
	}
	sort.Slice(r.Pairs, func(i, j int) bool { return r.Pairs[i].Key < r.Pairs[j].Key })
	if bo.Limit > 0 && len(r.Pairs) > bo.Limit {
		r.Pairs = r.Pairs[:bo.Limit]
	}
	return r
}

// runCrash drives stream through tg, seeded by seed, and returns a
// digest of everything the run observed. A phase admits the stream's
// chunks in order, each once the chunk window places before it has
// resolved, and crashes schedule[phase].dev once at ops of the phase have
// resolved (or once the stream runs dry). After the crash admission goes
// on while some device is up, until the phase has admitted 2·at ops; the
// shards on devices still up then sync and close. The rest of the stream
// runs in the next phase, on the recovered trees. The phase after the
// last crash runs it to the end and closes every shard, and one more
// recovery requires that image to be exactly the model.
func runCrash(t *testing.T, tg crashTarget, seed uint64, stream [][]BatchOp, schedule []crashPoint) string {
	t.Helper()
	m := &crashModel{acked: map[uint64][]byte{}, amb: map[uint64][]ambState{}}
	var digest strings.Builder
	fmt.Fprintf(&digest, "crash%+v seed=%d chunks=%d schedule=%v\n", tg, seed, len(stream), schedule)
	persistence := core.StrongPersistence
	if tg.weak {
		persistence = core.WeakPersistence
	}
	var imgs []map[uint64][]byte
	var clean []bool // per device: synced and closed by the last phase
	done := make([]bool, len(stream))
	next := 0 // the next chunk to admit
	for phase := 0; ; phase++ {
		label := fmt.Sprintf("crash%+v seed=%d phase=%d", tg, seed, phase)
		if phase > len(schedule) && len(m.amb) > 0 {
			t.Fatalf("%s: a fault-free phase left %d keys ambiguous", label, len(m.amb))
		}
		eng := sim.NewEngine()
		sds, metas, pairs := tg.mount(t, label, eng, seed+uint64(phase)*977, imgs, clean, &digest)
		if imgs != nil {
			if err := m.verify(pairs); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			fmt.Fprintf(&digest, "%s image crc=%08x keys=%d\n", label, crc32.ChecksumIEEE(fmt.Appendf(nil, "%v", oracleScan(pairs, 0, ^uint64(0), 0))), len(pairs))
		}
		if phase > len(schedule) {
			return digest.String()
		}

		crash := crashPoint{at: -1, dev: -1}
		if phase < len(schedule) {
			crash = schedule[phase]
		}
		fdevs := make([]*fault.Device, tg.devices)
		for d := range fdevs {
			fcfg := fault.Config{Seed: seed*1000003 + uint64(phase)*17 + uint64(d), Now: eng.Now}
			if d == crash.dev {
				fcfg.Probs = tg.probs
			}
			fdevs[d] = fault.New(sds[d], fcfg)
		}
		parts := carve(t, tg, fdevs)
		osched := simos.New(eng, simos.Config{})
		trees := make([]*core.Tree, tg.shards)
		for i := range trees {
			th := osched.Spawn(fmt.Sprintf("patree-shard%d", i), func(*simos.Thread) { trees[i].Run() })
			var err error
			trees[i], err = core.New(parts[i], core.Config{
				Persistence:  persistence,
				QueueDepth:   tg.queueDepth,
				BufferPages:  tg.buffer,
				Journal:      true,
				MaxIORetries: 8,
			}, core.SimEnv{T: th}, metas[i])
			if err != nil {
				t.Fatalf("%s: new tree %d: %v", label, i, err)
			}
		}

		// admit sends chunk ci's ops to their shards, a scan or a sync to
		// every shard, and settles the chunk once all have resolved.
		admitted, resolved, failed := 0, 0, 0
		admit := func(ci int) {
			chunk := stream[ci]
			subs := make([][]*core.Op, len(chunk))
			left := 0
			for i, bo := range chunk {
				for s := range trees {
					if bo.Kind != OpScan && bo.Kind != OpSync && s != core.ShardOf(bo.Key, tg.shards) {
						continue
					}
					op := coreOp(bo)
					op.Done = func(op *core.Op) {
						if resolved++; op.Res.Err != nil {
							failed++
						}
						if left--; left > 0 {
							return
						}
						got := make([]Result, len(chunk))
						for i, bo := range chunk {
							got[i] = merged(bo, subs[i])
						}
						if err := m.settle(chunk, got); err != nil {
							t.Errorf("%s: chunk %d: %v", label, ci, err)
						}
						done[ci] = true
					}
					subs[i] = append(subs[i], op)
					left++
					eng.After(0, func() { trees[s].Admit(op) })
				}
			}
			admitted += left
		}

		// The workers busy-poll while ops are live, so a stranded op shows
		// up as an endless run, not an idle engine: bound the steps.
		crashed, steps := false, 0
		low := next // the first chunk not yet resolved
		for {
			for low < next && done[low] {
				low++
			}
			if crash.at >= 0 && !crashed && (resolved >= crash.at || next == len(stream) && low == next) {
				crashed = true
				if err := fdevs[crash.dev].Crash(); err != nil {
					t.Fatalf("%s: crash device %d: %v", label, crash.dev, err)
				}
			}
			open := next < len(stream) && (!crashed || tg.devices > 1 && admitted < 2*crash.at)
			if open && next-low < tg.window {
				admit(next)
				next, steps = next+1, 0
				continue
			}
			if !open && low == next {
				break
			}
			if steps++; steps == 20_000_000 || !eng.Step() {
				t.Fatalf("%s: simulation wedged with %d of %d ops resolved", label, resolved, admitted)
			}
		}

		// Sync and close the shards on devices still up.
		clean = make([]bool, tg.devices)
		synced, syncs := 0, 0
		for i, tr := range trees {
			if d := i % tg.devices; d != crash.dev {
				clean[d], syncs = true, syncs+1
				op := core.NewSync(func(op *core.Op) {
					if synced++; op.Res.Err != nil {
						t.Errorf("%s: closing sync of shard %d: %v", label, i, op.Res.Err)
					}
				})
				eng.After(0, func() { tr.Admit(op) })
			}
		}
		for steps = 0; synced < syncs; steps++ {
			if steps == 20_000_000 || !eng.Step() {
				t.Fatalf("%s: closing syncs wedged with %d of %d done", label, synced, syncs)
			}
		}
		for _, tr := range trees {
			tr.Stop()
		}
		eng.RunFor(time.Second)

		fmt.Fprintf(&digest, "%s crash=%+v admitted=%d failed=%d\n", label, crash, admitted, failed)
		for i, tr := range trees {
			fmt.Fprintf(&digest, "%s shard=%d %+v\n", label, i, tr.StatsSnapshot().Counters)
		}
		imgs = make([]map[uint64][]byte, tg.devices)
		for d, fd := range fdevs {
			var err error
			if imgs[d], err = fd.Snapshot(); err != nil {
				t.Fatalf("%s: snapshot device %d: %v", label, d, err)
			}
			fmt.Fprintf(&digest, "%s dev=%d faults=%+v\n", label, d, fd.Counts())
		}
	}
}

// fuzzCrash runs a fuzz input's stream through the crash run that n, the
// top nibble of its second byte (non-zero), and b, its first core byte,
// pick: (n-1) mod 3 picks one device, four shards on one, or four on two,
// and device n mod devices crashes once (n-1)/3+1 sixths of the stream's
// ops resolved. The trees, journaled, take the rest from coreTargetOf(b);
// they run one chunk at a time with no injected faults.
func fuzzCrash(t *testing.T, n, b byte, stream [][]BatchOp) {
	c := coreTargetOf(b)
	topology := [][2]int{{1, 1}, {4, 1}, {4, 2}}[(n-1)%3]
	tg := crashTarget{shards: topology[0], devices: topology[1], weak: c.weak, queueDepth: c.queueDepth, buffer: c.buffer, window: 1}
	ops := 0
	for _, chunk := range stream {
		ops += len(chunk)
	}
	runCrash(t, tg, 1, stream, []crashPoint{{at: ops * (int(n-1)/3 + 1) / 6, dev: int(n) % tg.devices}})
}

// ─── Fixed targets ──────────────────────────────────────────────────────

// crashSuite is a fixed crash target: a topology, crashes crash points
// drawn by at, and a stream of chunks chunks of size point ops over keys
// 1..512, puts percent of them puts and dels deletes, the rest gets.
// Even seeds run weak persistence, odd ones strong.
type crashSuite struct {
	tg           crashTarget
	crashes      int
	at           func(rng *sim.RNG) int
	chunks, size int
	puts, dels   int
}

// run draws the schedule and the stream from seed and runs them.
func (s crashSuite) run(t *testing.T, seed uint64) string {
	rng := sim.NewRNG(seed)
	tg := s.tg
	tg.weak = seed%2 == 0
	schedule := make([]crashPoint, s.crashes)
	for i := range schedule {
		schedule[i] = crashPoint{at: s.at(rng), dev: rng.Intn(tg.devices)}
	}
	// A key is drawn again while a chunk fewer than window before holds
	// it, so no two chunks in flight together share a key.
	last := map[uint64]int{}
	stream := make([][]BatchOp, s.chunks)
	for ci := range stream {
		for j := 0; j < s.size; j++ {
			key := 1 + rng.Uint64n(512)
			for c, ok := last[key]; ok && ci-c < tg.window; c, ok = last[key] {
				key = 1 + rng.Uint64n(512)
			}
			last[key] = ci
			op := BatchOp{Kind: OpGet, Key: key}
			switch kind := rng.Intn(100); {
			case kind < s.puts:
				op = BatchOp{Kind: OpPut, Key: key, Value: []byte(fmt.Sprintf("s%d.c%d.%d", seed, ci, j))}
			case kind < s.puts+s.dels:
				op.Kind = OpDelete
			}
			stream[ci] = append(stream[ci], op)
		}
	}
	return runCrash(t, tg, seed, stream, schedule)
}

// seeds runs seeds 1..20, or 1..short under -short, as parallel
// subtests named by name.
func (s crashSuite) seeds(t *testing.T, short int, name string) {
	seeds := 20
	if testing.Short() {
		seeds = short
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		t.Run(fmt.Sprintf(name, seed), func(t *testing.T) {
			t.Parallel()
			s.run(t, seed)
		})
	}
}

// deterministic requires two runs of seed to write the same digest:
// otherwise no failure of the suite is reproducible.
func (s crashSuite) deterministic(t *testing.T, seed uint64) {
	if d1, d2 := s.run(t, seed), s.run(t, seed); d1 != d2 {
		t.Fatalf("seed %d diverged between two in-process runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", seed, d1, d2)
	}
}

var (
	// oneDevice is one tree on one device: 600 single-op chunks, 16 in
	// flight, and five crashes 30..119 ops into a phase.
	oneDevice = crashSuite{
		tg: crashTarget{shards: 1, devices: 1, buffer: 96, window: 16,
			probs: fault.Probs{ReadErr: 0.02, WriteErr: 0.02, Timeout: 0.01, BitRot: 0.01, TornWrite: 0.02, LatencySpike: 0.05}},
		crashes: 5, at: func(rng *sim.RNG) int { return 30 + rng.Intn(90) },
		chunks: 600, size: 1, puts: 55, dels: 20,
	}
	// sharded is four shards on one device, so a crash hits them all at
	// one instant: 100 cross-shard batches of six writes, three in
	// flight, and four crashes 12..138 ops into a phase.
	sharded = crashSuite{
		tg:      crashTarget{shards: 4, devices: 1, buffer: 48, window: 3, probs: oneDevice.tg.probs},
		crashes: 4, at: func(rng *sim.RNG) int { return 6 * (2 + rng.Intn(22)) },
		chunks: 100, size: 6, puts: 70, dels: 30,
	}
	// multiDevice is four shards on two devices, and each crash hits one:
	// the other keeps serving, then closes cleanly and must recover
	// without replay. It injects only read and write errors and latency
	// spikes.
	multiDevice = crashSuite{
		tg: crashTarget{shards: 4, devices: 2, buffer: 48, window: 3,
			probs: fault.Probs{ReadErr: 0.01, WriteErr: 0.01, LatencySpike: 0.05}},
		crashes: 4, at: sharded.at,
		chunks: 150, size: 6, puts: 70, dels: 30,
	}
)

// TestFaultStressSeeds runs the one-device crash suite. Reproduce a
// failure with go test . -run 'TestFaultStressSeeds/seed=N' -v.
func TestFaultStressSeeds(t *testing.T) { oneDevice.seeds(t, 6, "seed=%d") }

func TestStressDeterminism(t *testing.T) { oneDevice.deterministic(t, 9001) }

func TestShardedStressSeeds(t *testing.T) { sharded.seeds(t, 5, "shards=4/seed=%d") }

func TestShardedStressDeterminism(t *testing.T) { sharded.deterministic(t, 4242) }

func TestMultiDevStressSeeds(t *testing.T) { multiDevice.seeds(t, 5, "seed=%d") }

func TestMultiDevStressDeterminism(t *testing.T) { multiDevice.deterministic(t, 2424) }
