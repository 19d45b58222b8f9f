package buffer

import (
	"math"
	"slices"
	"testing"

	"github.com/patree/patree/internal/storage"
)

// The benchmark's key generator (bench/gen.go), reimplemented: the
// benchmark is its own module, and this trace must not move when it does.

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitmix is a splitmix64 stream.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// newZipf returns a sampler of ranks in [0, n) with P(i) ∝ 1/(i+1)^theta
// (Gray et al., as YCSB), rank 0 the hottest; theta is in (0, 1).
func newZipf(n uint64, theta float64) func(*splitmix) uint64 {
	zeta := func(k uint64) float64 {
		var s float64
		for i := uint64(1); i <= k; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	zetan := zeta(n)
	alpha := 1 / (1 - theta)
	eta := (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/zetan)
	powHalf := math.Pow(0.5, theta)
	return func(r *splitmix) uint64 {
		u := r.float()
		if uz := u * zetan; uz < 1 {
			return 0
		} else if uz < 1+powHalf {
			return 1
		}
		return min(uint64(float64(n)*math.Pow(eta*u-eta+1, alpha)), n-1)
	}
}

// zipfTraceMisses runs warm and then ops point gets through b and returns
// the misses of the ops.
// The keys are those of the benchmark's embed-cold-read image: Zipf
// ranks with θ 0.99, scrambled (rank r's key is mix64(r ^ salt)), three
// to a 512-byte leaf and 22 children to an inner page (bulk load at fill
// 0.7), a tree of height 5 over 50 000 keys. A get looks up one page per
// level, root first, and fills the page on a miss, as the tree does.
func zipfTraceMisses(b *Buffer, warm, ops int, seed uint64) uint64 {
	const (
		keys     = 50_000
		leafKeys = 3
		fanout   = 22
		height   = 5
	)
	salt := mix64(seed ^ 0x5eed)
	sorted := make([]uint64, keys)
	for r := range sorted {
		sorted[r] = mix64(uint64(r) ^ salt)
	}
	slices.Sort(sorted)
	// base[l] is the first page id of level l, leaves first.
	var base [height]uint64
	width := uint64(keys+leafKeys-1) / leafKeys
	for l := 1; l < height; l++ {
		base[l] = base[l-1] + width
		width = (width + fanout - 1) / fanout
	}
	if width != 1 {
		panic("zipfTraceMisses: the tree is not of height 5")
	}
	sample := newZipf(keys, 0.99)
	r := &splitmix{s: seed}
	page := make([]byte, 1)
	for i := range warm + ops {
		if i == warm {
			b.ResetStats()
		}
		pos, _ := slices.BinarySearch(sorted, mix64(sample(r)^salt))
		var path [height]uint64
		for l, idx := 0, uint64(pos/leafKeys); l < height; l, idx = l+1, idx/fanout {
			path[l] = base[l] + idx + 1
		}
		for l := height - 1; l >= 0; l-- {
			if _, ok := b.Get(storage.PageID(path[l])); !ok {
				b.FillOnRead(storage.PageID(path[l]), page)
			}
		}
	}
	return b.Stats().Misses
}

// TestZipfTraceMisses pins the exact miss count of a 4 096-page buffer
// (the benchmark's 2 MiB cache) on a million scrambled-Zipf point gets
// after half a million that warm it: the device reads the buffer's
// policy costs the benchmark's larger-than-cache read workload in its
// steady state.
func TestZipfTraceMisses(t *testing.T) {
	const ops = 1_000_000
	b := New(4096)
	got := zipfTraceMisses(b, ops/2, ops, 1)
	t.Logf("%d misses, %.4f per get", got, float64(got)/ops)
	if want := uint64(212_841); got != want {
		t.Fatalf("%d misses, want %d", got, want)
	}
	// The segmented LRU alone, without the window and the frequency
	// filter, missed 237 968 times; the filter must save at least 8 %.
	const slru = 237_968
	if got > slru*92/100 {
		t.Fatalf("%d misses, not 8 %% fewer than the segmented LRU's %d", got, slru)
	}
}
