// Package workload generates the paper's three evaluation workloads:
//
//   - YCSB-like synthetic mixes with Zipfian key popularity (§V: default
//     10% updates / 90% reads, update-heavy 50/50, read-only; skewness
//     α = 0.3 unless varied; 8-byte keys and payloads);
//   - a synthetic T-Drive: taxis random-walking a city grid, positions
//     z-order coded into keys, 70% updates, z-code range queries;
//   - a synthetic SSE order book: Zipf-popular stocks, mean-reverting
//     prices, composite (stock, price, seq) keys, ~108-byte records,
//     28% updates.
//
// The real T-Drive and SSE datasets are proprietary; DESIGN.md §1
// documents why these synthetic equivalents preserve the index-relevant
// properties (key distribution, operation mix, record sizes).
package workload

import (
	"math"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/sim"
)

// OpKind is the operation requested by a workload.
type OpKind int

// Operation kinds.
const (
	OpSearch OpKind = iota
	OpInsert
	OpUpdate
	OpDelete
	OpRange
)

// Op is one generated request.
type Op struct {
	Kind   OpKind
	Key    uint64
	EndKey uint64
	Limit  int
	Value  []byte
}

// Generator produces an operation stream plus the initial dataset.
type Generator interface {
	// Name identifies the workload in experiment output.
	Name() string
	// Preload returns the sorted, unique initial pairs to bulk-load.
	Preload() []core.KV
	// Next returns the next operation.
	Next() Op
}

// Zipf samples ranks in [0, n) with P(i) ∝ 1/(i+1)^theta, using the
// Gray et al. method YCSB popularized. theta = 0 degenerates to uniform.
type Zipf struct {
	rng     *sim.RNG
	n       uint64
	theta   float64
	alpha   float64
	zetan   float64
	eta     float64
	zeta2   float64
	powHalf float64 // cached 0.5^theta: Next is called per operation
}

// NewZipf builds a sampler over [0, n) with skew theta (the paper's α).
func NewZipf(rng *sim.RNG, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("workload: zipf over empty domain")
	}
	z := &Zipf{rng: rng, n: n, theta: theta}
	if theta <= 0 {
		return z
	}
	if theta >= 1 {
		// The Gray formulas need theta != 1; nudge.
		z.theta = 0.9999
	}
	z.zetan = zetaStatic(n, z.theta)
	z.zeta2 = zetaStatic(2, z.theta)
	z.alpha = 1 / (1 - z.theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-z.theta)) / (1 - z.zeta2/z.zetan)
	z.powHalf = math.Pow(0.5, z.theta)
	return z
}

// Clone returns a sampler drawing from rng but sharing z's precomputed
// constants. zetaStatic is O(n); a load generator spinning up thousands
// of workers over the same (n, theta) builds one Zipf and clones it.
func (z *Zipf) Clone(rng *sim.RNG) *Zipf {
	c := *z
	c.rng = rng
	return &c
}

func zetaStatic(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns a rank; rank 0 is the most popular.
func (z *Zipf) Next() uint64 {
	if z.theta <= 0 {
		return z.rng.Uint64n(z.n)
	}
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.powHalf {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// scramble spreads ranks across the key domain so popular keys are not
// physically adjacent (YCSB's scrambled zipfian), via a 64-bit mix.
func scramble(rank uint64) uint64 {
	z := rank + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// YCSBConfig parameterizes the synthetic workload.
type YCSBConfig struct {
	// Keys is the number of distinct keys (preloaded).
	Keys uint64
	// UpdatePercent is the share of update operations (0, 10 or 50 in the
	// paper).
	UpdatePercent int
	// Theta is the Zipfian skewness α (default 0.3).
	Theta float64
	// ValueSize is the payload size (default 8 bytes).
	ValueSize int
	// RangePercent is the share of short range scans (YCSB-E style);
	// the default 0 keeps the paper's point-only mixes.
	RangePercent int
	// RangeLimit is how many pairs each scan asks for (default 64 when
	// RangePercent > 0).
	RangeLimit int
	// Seed drives the generator.
	Seed uint64
}

// YCSB is the synthetic workload generator.
type YCSB struct {
	cfg  YCSBConfig
	rng  *sim.RNG
	zipf *Zipf
	val  []byte
	name string
}

// NewYCSB builds a generator. Keys are the scrambled ranks 0..Keys-1, so
// the preload and the op stream address the same domain.
func NewYCSB(cfg YCSBConfig) *YCSB {
	if cfg.Keys == 0 {
		cfg.Keys = 1 << 20
	}
	if cfg.Theta == 0 {
		cfg.Theta = 0.3
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 8
	}
	if cfg.RangePercent > 0 && cfg.RangeLimit <= 0 {
		cfg.RangeLimit = 64
	}
	rng := sim.NewRNG(cfg.Seed ^ 0x9c5b)
	name := "ycsb-default"
	switch {
	case cfg.UpdatePercent == 0:
		name = "ycsb-read-only"
	case cfg.UpdatePercent >= 50:
		name = "ycsb-update-heavy"
	}
	return &YCSB{
		cfg:  cfg,
		rng:  rng,
		zipf: NewZipf(rng.Split(), cfg.Keys, cfg.Theta),
		val:  make([]byte, cfg.ValueSize),
		name: name,
	}
}

// Name implements Generator.
func (y *YCSB) Name() string { return y.name }

// Preload implements Generator.
func (y *YCSB) Preload() []core.KV {
	pairs := make([]core.KV, 0, y.cfg.Keys)
	for r := uint64(0); r < y.cfg.Keys; r++ {
		pairs = append(pairs, core.KV{Key: scramble(r), Value: make([]byte, y.cfg.ValueSize)})
	}
	sortKVs(pairs)
	return dedupKVs(pairs)
}

// Next implements Generator.
func (y *YCSB) Next() Op {
	key := scramble(y.zipf.Next())
	r := int(y.rng.Uint64n(100))
	if r < y.cfg.UpdatePercent {
		v := make([]byte, y.cfg.ValueSize)
		y.rng.FillBytes(v)
		return Op{Kind: OpUpdate, Key: key, Value: v}
	}
	if r < y.cfg.UpdatePercent+y.cfg.RangePercent {
		// Scans start at a popular key and take the next RangeLimit pairs
		// in key order, whatever they are (the scrambled domain makes the
		// span a random slice of the tree).
		return Op{Kind: OpRange, Key: key, EndKey: ^uint64(0), Limit: y.cfg.RangeLimit}
	}
	return Op{Kind: OpSearch, Key: key}
}

func sortKVs(pairs []core.KV) {
	// Simple in-place sort; the preload path is setup-only.
	quickSortKV(pairs)
}

func quickSortKV(p []core.KV) {
	if len(p) < 2 {
		return
	}
	if len(p) < 16 {
		for i := 1; i < len(p); i++ {
			for j := i; j > 0 && p[j].Key < p[j-1].Key; j-- {
				p[j], p[j-1] = p[j-1], p[j]
			}
		}
		return
	}
	pivot := p[len(p)/2].Key
	lo, hi := 0, len(p)-1
	for lo <= hi {
		for p[lo].Key < pivot {
			lo++
		}
		for p[hi].Key > pivot {
			hi--
		}
		if lo <= hi {
			p[lo], p[hi] = p[hi], p[lo]
			lo++
			hi--
		}
	}
	quickSortKV(p[:hi+1])
	quickSortKV(p[lo:])
}

func dedupKVs(pairs []core.KV) []core.KV {
	out := pairs[:0]
	for i, kv := range pairs {
		if i > 0 && kv.Key == out[len(out)-1].Key {
			continue
		}
		out = append(out, kv)
	}
	return out
}
