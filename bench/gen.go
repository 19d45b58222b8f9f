package main

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"

	"github.com/patree/patree/internal/core"
)

// rng is a splitmix64 stream: the benchmark's only source of randomness,
// so one -seed fixes every input.
type rng struct{ s uint64 }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// zipf samples ranks in [0, n) with P(i) ∝ 1/(i+1)^theta (Gray et al.,
// the method YCSB uses); rank 0 is the hottest.
type zipf struct {
	n                        uint64
	theta, alpha, zetan, eta float64
	powHalf                  float64
}

func newZipf(n uint64, theta float64) *zipf {
	z := &zipf{n: n, theta: theta}
	if theta <= 0 {
		return z
	}
	zeta := func(k uint64) float64 {
		var s float64
		for i := uint64(1); i <= k; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z.zetan = zeta(n)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	z.powHalf = math.Pow(0.5, theta)
	return z
}

func (z *zipf) sample(r *rng) uint64 {
	if z.theta <= 0 {
		return r.intn(z.n)
	}
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.powHalf {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// Per-rank model state: version<<1 | live. Version 0 means never written.
func mkState(ver uint32, live bool) uint32 {
	s := ver << 1
	if live {
		s |= 1
	}
	return s
}
func stateVer(s uint32) uint32 { return s >> 1 }
func stateLive(s uint32) bool  { return s&1 == 1 }

// model is what the benchmark knows the store must hold. Ranks are dense
// indexes; rank r's key is mix64(r ^ salt), a bijection, so hot ranks
// land on unrelated leaves (YCSB's scrambled Zipfian) and no two ranks
// collide. Each rank has one writer (rank mod callers), which stores
// issued before it submits a write and acked after the store
// acknowledged it; readers of any rank bound a result's version by
// acked (loaded before the read was issued) and issued (loaded after it
// returned).
type model struct {
	keys      int // preloaded ranks are [0, keys)
	salt      uint64
	valueSize int
	issued    []uint32
	acked     []uint32
	live      atomic.Int64 // live keys now
}

// freshRoom is how many never-loaded ranks a run that inserts may add.
const freshRoom = 1 << 20

// newModel models keys preloaded ranks with room for fresh more.
func newModel(keys, fresh, valueSize int, seed uint64) *model {
	m := &model{keys: keys, salt: mix64(seed ^ 0x5eed), valueSize: valueSize}
	m.issued = make([]uint32, keys+fresh)
	m.acked = make([]uint32, keys+fresh)
	for i := 0; i < keys; i++ {
		m.issued[i] = mkState(1, true)
		m.acked[i] = mkState(1, true)
	}
	m.live.Store(int64(keys))
	return m
}

func (m *model) key(rank uint32) uint64 { return mix64(uint64(rank) ^ m.salt) }

func (m *model) loadAcked(rank uint32) uint32  { return atomic.LoadUint32(&m.acked[rank]) }
func (m *model) loadIssued(rank uint32) uint32 { return atomic.LoadUint32(&m.issued[rank]) }

// issue records that the owner is about to write rank and returns the new
// state; ack publishes it once the store acknowledged the write.
func (m *model) issue(rank uint32, live bool) uint32 {
	s := mkState(stateVer(m.issued[rank])+1, live)
	atomic.StoreUint32(&m.issued[rank], s)
	return s
}

func (m *model) ack(rank uint32) {
	was, now := m.acked[rank], m.issued[rank]
	atomic.StoreUint32(&m.acked[rank], now)
	switch {
	case stateLive(now) && !stateLive(was):
		m.live.Add(1)
	case !stateLive(now) && stateLive(was):
		m.live.Add(-1)
	}
}

// userBytes is what one live pair costs the user: key plus value.
func (m *model) userBytes() int { return 8 + m.valueSize }

// encode writes the value of (key, ver) into buf[:valueSize]: the key and
// version, then a filler derived from both, so any mix-up of keys,
// versions or bytes shows on read.
func (m *model) encode(buf []byte, key uint64, ver uint32) []byte {
	buf = buf[:m.valueSize]
	if m.valueSize < 16 {
		binary.LittleEndian.PutUint32(buf, uint32(key))
		binary.LittleEndian.PutUint32(buf[4:], ver)
		return buf
	}
	binary.LittleEndian.PutUint64(buf, key)
	binary.LittleEndian.PutUint64(buf[8:], uint64(ver))
	w := mix64(key ^ uint64(ver))
	i := 16
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], w)
	}
	for ; i < len(buf); i++ {
		buf[i] = byte(w)
	}
	return buf
}

// decode checks that val is a well-formed value of key and returns its
// version.
func (m *model) decode(key uint64, val []byte) (uint32, bool) {
	if len(val) != m.valueSize {
		return 0, false
	}
	if m.valueSize < 16 {
		return binary.LittleEndian.Uint32(val[4:]), binary.LittleEndian.Uint32(val) == uint32(key)
	}
	ver := binary.LittleEndian.Uint64(val[8:])
	if binary.LittleEndian.Uint64(val) != key || ver > math.MaxUint32 {
		return 0, false
	}
	w := mix64(key ^ ver)
	i := 16
	for ; i+8 <= len(val); i += 8 {
		if binary.LittleEndian.Uint64(val[i:]) != w {
			return 0, false
		}
	}
	for ; i < len(val); i++ {
		if val[i] != byte(w) {
			return 0, false
		}
	}
	return uint32(ver), true
}

// checkPoint validates a point read of rank: lo is the acked state loaded
// before the read was issued, hi the issued state loaded after it
// returned. The owner writes a rank at most once per group of concurrent
// operations, so for the owner lo and hi are the only two states the
// read may have seen; for another reader the version may lie anywhere
// between them.
func (m *model) checkPoint(rank uint32, lo, hi uint32, found bool, val []byte) bool {
	if !found {
		return !stateLive(lo) || !stateLive(hi)
	}
	ver, ok := m.decode(m.key(rank), val)
	if !ok || ver < stateVer(lo) || ver > stateVer(hi) {
		return false
	}
	if ver == stateVer(lo) && !stateLive(lo) || ver == stateVer(hi) && !stateLive(hi) {
		return false
	}
	return true
}

// keyIndex is the sorted view of a key set: keys ascending, the rank of
// each, and (for preloaded ranks) each rank's position.
type keyIndex struct {
	keys  []uint64
	ranks []uint32
	pos   []uint32
}

func (ix *keyIndex) Len() int           { return len(ix.keys) }
func (ix *keyIndex) Less(i, j int) bool { return ix.keys[i] < ix.keys[j] }
func (ix *keyIndex) Swap(i, j int) {
	ix.keys[i], ix.keys[j] = ix.keys[j], ix.keys[i]
	ix.ranks[i], ix.ranks[j] = ix.ranks[j], ix.ranks[i]
}

// indexOf sorts the given ranks by key.
func (m *model) indexOf(ranks []uint32) *keyIndex {
	ix := &keyIndex{keys: make([]uint64, len(ranks)), ranks: ranks}
	for i, r := range ranks {
		ix.keys[i] = m.key(r)
	}
	sort.Sort(ix)
	return ix
}

// preloadIndex is the sorted view of the preloaded ranks, with positions.
func (m *model) preloadIndex() *keyIndex {
	ranks := make([]uint32, m.keys)
	for i := range ranks {
		ranks[i] = uint32(i)
	}
	ix := m.indexOf(ranks)
	ix.pos = make([]uint32, m.keys)
	for i, r := range ix.ranks {
		ix.pos[r] = uint32(i)
	}
	return ix
}

// pairs renders the preload as sorted key/value pairs at version 1, the
// input of core.BulkLoad.
func (m *model) pairs(ix *keyIndex) []core.KV {
	out := make([]core.KV, len(ix.keys))
	slab := make([]byte, len(ix.keys)*m.valueSize)
	for i, k := range ix.keys {
		out[i] = core.KV{Key: k, Value: m.encode(slab[i*m.valueSize:], k, 1)}
	}
	return out
}

// liveRanks lists every rank whose acked state is live.
func (m *model) liveRanks() []uint32 {
	var out []uint32
	for r, s := range m.acked {
		if stateLive(s) {
			out = append(out, uint32(r))
		}
	}
	return out
}

// sweepChunk is the pairs one verification scan asks for.
const sweepChunk = 2048

// sweepCheck compares a full scan of the store, fed chunk by chunk in key
// order, with the model's live set.
type sweepCheck struct {
	m    *model
	want *keyIndex
	i    int
	bad  uint64
}

func (m *model) newSweep() *sweepCheck {
	return &sweepCheck{m: m, want: m.indexOf(m.liveRanks())}
}

// feed checks one chunk and returns the key to scan from next; done
// reports that the chunk was the last.
func (c *sweepCheck) feed(pairs []core.KV) (next uint64, done bool) {
	for _, kv := range pairs {
		if c.i >= len(c.want.keys) || kv.Key != c.want.keys[c.i] {
			c.bad++
			continue
		}
		ver, ok := c.m.decode(kv.Key, kv.Value)
		if !ok || ver != stateVer(c.m.loadAcked(c.want.ranks[c.i])) {
			c.bad++
		}
		c.i++
	}
	if len(pairs) < sweepChunk || pairs[len(pairs)-1].Key == math.MaxUint64 {
		return 0, true
	}
	return pairs[len(pairs)-1].Key + 1, false
}

// result returns keys compared and mismatches; keys the scan never
// reached count as mismatches.
func (c *sweepCheck) result() (checked, bad uint64) {
	return uint64(len(c.want.keys)), c.bad + uint64(len(c.want.keys)-c.i)
}
