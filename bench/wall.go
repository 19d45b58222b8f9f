package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	patree "github.com/patree/patree"
	"github.com/patree/patree/client"
	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/nvme"
	"github.com/patree/patree/internal/server"
)

// callers is the number of caller goroutines (and the most TCP
// connections) a wall-clock workload uses: never more than the 2 cores
// this benchmark is sized for, so callers do not fight the engine's
// spinning worker for a CPU.
const callers = 2

// groupSize is the operations one caller keeps in flight in the loaded
// phase: callers × groupSize = 64 outstanding, the paper's setting.
const groupSize = 32

// scanLimit is the pairs a Scan asks for.
const scanLimit = 16

// warmCap bounds the warm-up of one set-up.
const warmCap = 15 * time.Second

type opKind uint8

const (
	opGet opKind = iota
	opScan
	opUpdate
	opPut
	opDelete
)

// slot is one operation of a group: what was asked, what the model allows,
// and what came back.
type slot struct {
	kind   opKind
	rank   uint32
	key    uint64
	lo     uint32            // acked state before the operation was issued
	scanAt int               // position of key in the preload index (scans)
	scanLo [scanLimit]uint32 // acked states of the pairs a scan must return
	buf    []byte            // value buffer, reused once the operation completed

	found bool
	val   []byte
	pairs []patree.KV
	err   error
}

// caller generates, issues and checks operations on the ranks it owns
// (rank mod callers == id). Only Scan crosses into other callers' ranks.
type caller struct {
	id  int
	sp  *spec
	m   *model
	ix  *keyIndex
	r   rng
	z   *zipf
	own uint64 // number of preloaded ranks this caller owns

	slots   [groupSize]slot
	handles [groupSize]*patree.Handle
	written []uint32 // ranks written by the group being built
	pending []uint32 // ranks this caller deleted, to be re-inserted
	fresh   uint32   // never-loaded ranks this caller has inserted

	done      atomic.Uint64 // operations completed
	failed    atomic.Uint64 // operations that erred or returned a wrong result
	userBytes atomic.Uint64 // user bytes written by completed operations

	// Traced-pass collections (nil tracer = off).
	tr       *tracer
	clock    func() int64
	groupLat samples // group round trips, loaded phase
	waitLat  samples
	commitNs int64
}

func newCaller(id int, sp *spec, m *model, ix *keyIndex, seed uint64) *caller {
	c := &caller{id: id, sp: sp, m: m, ix: ix}
	c.r.s = mix64(seed ^ uint64(id+1)*0x9e3779b97f4a7c15)
	c.own = uint64((m.keys - id + callers - 1) / callers)
	c.z = newZipf(c.own, sp.theta)
	for i := range c.slots {
		c.slots[i].buf = make([]byte, m.valueSize)
	}
	return c
}

// ownRank draws one of the caller's preloaded ranks; for a write it steps
// past ranks the group under construction already writes, so a rank has
// at most one write in flight.
func (c *caller) ownRank(write bool) uint32 {
	j := c.z.sample(&c.r)
	for {
		rank := uint32(j)*callers + uint32(c.id)
		if !write || !c.inGroup(rank) {
			return rank
		}
		j = (j + 1) % c.own
	}
}

func (c *caller) inGroup(rank uint32) bool {
	for _, w := range c.written {
		if w == rank {
			return true
		}
	}
	return false
}

// gen fills s with the next operation of the workload's mix.
func (c *caller) gen(s *slot) {
	mix := &c.sp.mix
	p := int(c.r.intn(100))
	switch {
	case p < mix.get:
		s.kind = opGet
	case p < mix.get+mix.scan:
		s.kind = opScan
	case p < mix.get+mix.scan+mix.update:
		s.kind = opUpdate
	case p < mix.get+mix.scan+mix.update+mix.put:
		s.kind = opPut
	default:
		s.kind = opDelete
	}
	m := c.m
	switch s.kind {
	case opGet:
		s.rank = c.ownRank(false)
		s.lo = m.loadAcked(s.rank)
	case opScan:
		s.rank = c.ownRank(false)
		s.scanAt = int(c.ix.pos[s.rank])
		for i := 0; i < scanLimit && s.scanAt+i < len(c.ix.keys); i++ {
			s.scanLo[i] = m.loadAcked(c.ix.ranks[s.scanAt+i])
		}
	case opUpdate, opDelete:
		s.rank = c.ownRank(true)
		s.lo = m.loadAcked(s.rank)
		c.written = append(c.written, s.rank)
		st := m.issue(s.rank, s.kind == opUpdate && stateLive(s.lo))
		if s.kind == opUpdate {
			s.val = m.encode(s.buf, m.key(s.rank), stateVer(st))
		}
	case opPut:
		// Re-insert a key this caller deleted earlier, else a fresh one:
		// deletes and re-inserts keep the hot set alive, fresh keys grow
		// the image.
		if n := len(c.pending); n > 0 && !c.inGroup(c.pending[n-1]) {
			s.rank = c.pending[n-1]
			c.pending = c.pending[:n-1]
		} else if m.keys+int(c.fresh+1)*callers <= len(m.acked) {
			s.rank = uint32(m.keys) + c.fresh*callers + uint32(c.id)
			c.fresh++
		} else {
			s.rank = c.ownRank(true)
		}
		s.lo = m.loadAcked(s.rank)
		c.written = append(c.written, s.rank)
		st := m.issue(s.rank, true)
		s.val = m.encode(s.buf, m.key(s.rank), stateVer(st))
	}
	s.key = m.key(s.rank)
}

// finish checks a completed operation against the model, publishes its
// write, and accounts it. It reports whether the result was right.
func (c *caller) finish(s *slot) bool {
	m := c.m
	ok := s.err == nil
	switch s.kind {
	case opGet:
		ok = ok && m.checkPoint(s.rank, s.lo, m.loadIssued(s.rank), s.found, s.val)
	case opScan:
		ok = ok && c.checkScan(s)
	case opUpdate, opDelete:
		// One write per rank per group: the outcome is exact.
		ok = ok && s.found == stateLive(s.lo)
	}
	if s.err == nil && s.kind >= opUpdate {
		m.ack(s.rank)
		switch {
		case s.kind == opDelete:
			if s.found {
				c.pending = append(c.pending, s.rank)
				c.userBytes.Add(8)
			}
		case s.kind == opPut || s.found:
			c.userBytes.Add(uint64(m.userBytes()))
		}
	}
	if !ok {
		c.failed.Add(1)
	}
	c.done.Add(1)
	return ok
}

// checkScan validates a Scan(key, max, scanLimit) over the static preload
// key set: exactly the next pairs in key order, each a well-formed value
// no older than what was acked before the scan and no newer than what
// its writer has issued since.
func (c *caller) checkScan(s *slot) bool {
	want := len(c.ix.keys) - s.scanAt
	if want > scanLimit {
		want = scanLimit
	}
	if len(s.pairs) != want {
		return false
	}
	for i, kv := range s.pairs {
		rank := c.ix.ranks[s.scanAt+i]
		if kv.Key != c.ix.keys[s.scanAt+i] {
			return false
		}
		ver, ok := c.m.decode(kv.Key, kv.Value)
		if !ok || ver < stateVer(s.scanLo[i]) || ver > stateVer(c.m.loadIssued(rank)) {
			return false
		}
	}
	return true
}

// one issues a single blocking operation (the unloaded phase) and returns
// its call → return time.
func (c *caller) one(store patree.Store) int64 {
	s := &c.slots[0]
	c.written = c.written[:0]
	c.gen(s)
	t0 := c.clock()
	var id uint64
	if c.tr != nil {
		id = c.tr.open(spanOp, 0, t0)
		c.tr.cur.Store(id)
	}
	switch s.kind {
	case opGet:
		s.val, s.found, s.err = store.Get(s.key)
	case opScan:
		s.pairs, s.err = store.Scan(s.key, math.MaxUint64, scanLimit)
	case opUpdate:
		s.found, s.err = store.Update(s.key, s.val)
	case opPut:
		s.err = store.Put(s.key, s.val)
	case opDelete:
		s.found, s.err = store.Delete(s.key)
	}
	t1 := c.clock()
	if c.tr != nil {
		c.tr.cur.Store(0)
		c.tr.end(id, t1)
	}
	c.finish(s)
	return t1 - t0
}

// group issues n operations at once (the loaded phase): one Batch on the
// embedded store, n pipelined async singles over the wire so the server's
// burst admission does the coalescing.
func (c *caller) group(store patree.Store, n int, traced bool) {
	c.written = c.written[:0]
	for i := 0; i < n; i++ {
		c.gen(&c.slots[i])
	}
	var gid, cid, wid uint64
	t0 := c.clock()
	if traced {
		gid = c.tr.open(spanGroup, 0, t0)
		cid = c.tr.open(spanCommit, gid, t0)
	}
	var t1 int64
	if c.sp.serve {
		for i := 0; i < n; i++ {
			s := &c.slots[i]
			switch s.kind {
			case opGet:
				c.handles[i], s.err = store.GetAsync(s.key)
			case opScan:
				c.handles[i], s.err = store.ScanAsync(s.key, math.MaxUint64, scanLimit)
			case opUpdate:
				c.handles[i], s.err = store.UpdateAsync(s.key, s.val)
			case opPut:
				c.handles[i], s.err = store.PutAsync(s.key, s.val)
			case opDelete:
				c.handles[i], s.err = store.DeleteAsync(s.key)
			}
		}
		t1 = c.clock()
		if traced {
			c.tr.end(cid, t1)
			wid = c.tr.open(spanWait, gid, t1)
		}
		for i := 0; i < n; i++ {
			s, h := &c.slots[i], c.handles[i]
			if h == nil {
				continue
			}
			if s.err = h.Wait(); s.err == nil {
				s.found, s.val, s.pairs = h.Found(), h.Value(), h.Pairs()
			}
			h.Release()
			c.handles[i] = nil
		}
	} else {
		b := store.NewBatch()
		for i := 0; i < n; i++ {
			s := &c.slots[i]
			switch s.kind {
			case opGet:
				b.Get(s.key)
			case opScan:
				b.Scan(s.key, math.MaxUint64, scanLimit)
			case opUpdate:
				b.Update(s.key, s.val)
			case opPut:
				b.Put(s.key, s.val)
			case opDelete:
				b.Delete(s.key)
			}
		}
		cerr := b.Commit()
		t1 = c.clock()
		if traced {
			c.tr.end(cid, t1)
			wid = c.tr.open(spanWait, gid, t1)
		}
		if cerr == nil {
			b.Wait() // per-operation errors are read below
		}
		for i := 0; i < n; i++ {
			s := &c.slots[i]
			if s.err = cerr; cerr == nil {
				if s.err = b.Err(i); s.err == nil {
					s.found, s.val, s.pairs = b.Found(i), b.Value(i), b.Pairs(i)
				}
			}
		}
		b.Release()
	}
	t2 := c.clock()
	if traced {
		c.tr.end(wid, t2)
		c.tr.end(gid, t2)
		c.groupLat = append(c.groupLat, t2-t0)
		c.waitLat = append(c.waitLat, t2-t1)
		c.commitNs += t1 - t0
	}
	for i := 0; i < n; i++ {
		c.finish(&c.slots[i])
	}
}

// wallRun is one opened instance of a wall-clock workload.
type wallRun struct {
	sp    *spec
	m     *model
	ix    *keyIndex
	ram   *nvme.RAMDevice
	dev   *countDev
	db    *patree.DB
	sw    *storeWrap
	srv   *server.Server
	srvCh chan error
	pool  *client.Pool
	store patree.Store // what the callers talk to: the DB or the pool
	cs    []*caller
	tr    *tracer
	epoch time.Time

	// Where set-up went: bulk load, Open (and dial), warm-up.
	loadS, openS, warmS float64
}

func (w *wallRun) clock() int64 { return time.Since(w.epoch).Nanoseconds() }

// openWall builds the image, opens the engine (and the server and client
// for a served workload) and runs the fixed-size warm-up. Everything it
// does is what setup_s times.
func openWall(sp *spec, cfg *runCfg, pairs []core.KV, ix *keyIndex, tr *tracer) (*wallRun, error) {
	w := &wallRun{sp: sp, ix: ix, tr: tr, epoch: time.Now()}
	fresh := 0
	if sp.mix.put > 0 {
		fresh = freshRoom
	}
	w.m = newModel(len(pairs), fresh, sp.valueSize, cfg.seed)
	w.ram = nvme.NewRAMDevice(nvme.RAMConfig{})
	w.dev = newCountDev(w.ram, w.clock, tr)
	if _, err := core.BulkLoad(w.dev, pairs, 0.7); err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	w.loadS = time.Since(w.epoch).Seconds()
	meta, err := core.ReadMeta(w.dev)
	if err != nil {
		return nil, fmt.Errorf("read meta: %w", err)
	}
	w.dev.setWAL(meta.WALStart, meta.WALBlocks)
	// Only these three fields are ever set: the benchmark measures what
	// Open gives by default.
	w.db, err = patree.Open(patree.Options{Device: w.dev, BufferPages: bufferPages, Journal: sp.journal})
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	w.store = w.db
	if sp.serve {
		w.sw = &storeWrap{DB: w.db, clock: w.clock, tr: tr}
		w.srv = server.New(w.sw, server.Options{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		w.srvCh = make(chan error, 1)
		go func() { w.srvCh <- w.srv.Serve(ln) }()
		if w.pool, err = client.DialPool(ln.Addr().String(), 1, client.Options{}); err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		w.store = w.pool
	}
	for id := 0; id < callers; id++ {
		c := newCaller(id, sp, w.m, ix, cfg.seed)
		c.clock = w.clock
		w.cs = append(w.cs, c)
	}
	w.openS = time.Since(w.epoch).Seconds() - w.loadS
	// Warm-up is a fixed amount of loaded work, not a fixed time, so a
	// slower system shows a longer set-up. warmCap is ten times what it
	// takes here and only keeps a run on a stalled box inside the driver's
	// time limit.
	deadline := time.Now().Add(warmCap)
	w.eachCaller(func(c *caller) {
		for n := 0; n < cfg.warmOps(sp)/callers && time.Now().Before(deadline); n += groupSize {
			c.group(w.store, groupSize, false)
		}
	})
	w.warmS = time.Since(w.epoch).Seconds() - w.loadS - w.openS
	return w, nil
}

func (w *wallRun) eachCaller(f func(*caller)) {
	var wg sync.WaitGroup
	for _, c := range w.cs {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// close tears the instance down, client first.
func (w *wallRun) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if w.pool != nil {
		keep(w.pool.Close())
	}
	if w.srv != nil {
		keep(w.srv.Close())
		keep(<-w.srvCh)
	}
	keep(w.db.Close())
	keep(w.ram.Close())
	return first
}

func (w *wallRun) totals() (done, failed, userBytes uint64) {
	for _, c := range w.cs {
		done += c.done.Load()
		failed += c.failed.Load()
		userBytes += c.userBytes.Load()
	}
	return
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// edge is one reading of everything the loaded phase differences.
type edge struct {
	at        time.Time
	ops       uint64
	userBytes uint64
	dev       devCounts
	cpu       time.Duration
}

func (w *wallRun) edge() edge {
	done, _, ub := w.totals()
	return edge{at: time.Now(), ops: done, userBytes: ub, dev: w.dev.counts(), cpu: cpuTime()}
}

// window is what the loaded phase did between two readings.
type window struct {
	secs      float64
	ops       uint64
	userBytes uint64
	dev       devCounts
	cpu       time.Duration
}

func (a edge) until(b edge) window {
	return window{
		secs: b.at.Sub(a.at).Seconds(), ops: b.ops - a.ops, userBytes: b.userBytes - a.userBytes,
		dev: b.dev.sub(a.dev), cpu: b.cpu - a.cpu,
	}
}

func (x window) opsPerS() float64    { return float64(x.ops) / x.secs }
func (x window) cpuUsPerOp() float64 { return float64(x.cpu.Nanoseconds()) / 1e3 / float64(x.ops) }
func (x window) iosPerOp() float64   { return float64(x.dev.cmds()) / float64(x.ops) }
func (x window) writeAmp() float64   { return float64(x.dev.WriteBytes) / float64(x.userBytes) }

// loadedWindows is how many equal windows the loaded phase is read in.
const loadedWindows = 7

// loaded runs both callers flat out for total and returns readings of
// the counters at its start and at the end of each window.
func (w *wallRun) loaded(total time.Duration, traced bool) []edge {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, c := range w.cs {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for !stop.Load() {
				c.group(w.store, groupSize, traced)
			}
		}(c)
	}
	edges := []edge{w.edge()}
	for i := 1; i <= loadedWindows; i++ {
		time.Sleep(time.Until(edges[0].at.Add(total * time.Duration(i) / loadedWindows)))
		edges = append(edges, w.edge())
	}
	stop.Store(true)
	wg.Wait()
	return edges
}

// unloaded runs one caller with one blocking operation in flight for
// total and returns the call → return times in issue order.
func (w *wallRun) unloaded(total time.Duration) samples {
	c := w.cs[0]
	var lat samples
	for end := time.Now().Add(total); time.Now().Before(end); {
		lat = append(lat, c.one(w.store))
	}
	return lat
}

// sweep reads the whole store in key order through st and compares it
// with the model's live set. It returns keys compared and mismatches.
func (w *wallRun) sweep(st patree.Store) (checked, bad uint64) {
	c := w.m.newSweep()
	for lo, done := uint64(0), false; !done; {
		pairs, err := st.Scan(lo, math.MaxUint64, sweepChunk)
		if err != nil {
			break
		}
		lo, done = c.feed(pairs)
	}
	return c.result()
}

// reopenCheck is the durability test: img is the device image taken after
// the last acknowledgement with no Close or Sync, so anything the engine
// had not made durable is absent by construction. Opening it must
// recover every acknowledged write.
func (w *wallRun) reopenCheck(img map[uint64][]byte) (checked, bad uint64, err error) {
	ram := nvme.NewRAMDevice(nvme.RAMConfig{})
	defer ram.Close()
	ram.LoadImage(img)
	db, err := patree.Open(patree.Options{Device: ram, BufferPages: bufferPages, Journal: true})
	if err != nil {
		return 0, 0, fmt.Errorf("reopen crash image: %w", err)
	}
	checked, bad = w.sweep(db)
	return checked, bad, db.Close()
}

// memDelta is runtime.MemStats differenced over a phase.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

func (a memDelta) until(b memDelta) memDelta {
	return memDelta{mallocs: b.mallocs - a.mallocs, bytes: b.bytes - a.bytes, gcs: b.gcs - a.gcs, pauseNs: b.pauseNs - a.pauseNs}
}
