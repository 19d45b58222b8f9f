package workload

import (
	"encoding/binary"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/sim"
	"github.com/patree/patree/internal/zorder"
)

// The city grid's fixed geometry.
const (
	// gridBits is the per-axis resolution (2^gridBits × 2^gridBits
	// cells), and gridMax the last cell on each axis.
	gridBits = 12
	gridMax  = 1<<gridBits - 1
	// rangeCells is the query window edge length in cells.
	rangeCells = 4
)

// TDriveConfig parameterizes the synthetic taxi-trajectory workload
// standing in for the proprietary T-Drive dataset: taxis random-walk a
// city grid (with a hot centre, like Beijing's), each position report is
// inserted under a key built from the z-order code of its cell, and
// queries ask for all records within a z-code range. The paper reports
// the workload is extremely update-heavy: 70% updates.
type TDriveConfig struct {
	// Taxis is the fleet size (paper: >10,000).
	Taxis int
	// PreloadRecords is the number of initial position records.
	PreloadRecords int
	// UpdatePercent is the share of inserts (default 70, per the paper).
	UpdatePercent int
	// Seed drives the walk.
	Seed uint64
}

func (c TDriveConfig) withDefaults() TDriveConfig {
	if c.Taxis <= 0 {
		c.Taxis = 10000
	}
	if c.PreloadRecords <= 0 {
		c.PreloadRecords = 1 << 20
	}
	if c.UpdatePercent <= 0 {
		c.UpdatePercent = 70
	}
	return c
}

// TDrive generates the taxi workload.
type TDrive struct {
	cfg  TDriveConfig
	rng  *sim.RNG
	x, y []uint32 // taxi positions
	seq  uint64
}

// NewTDrive builds the generator; taxis start clustered around the city
// centre with a normal spread (creating the spatial skew real GPS traces
// have).
func NewTDrive(cfg TDriveConfig) *TDrive {
	cfg = cfg.withDefaults()
	t := &TDrive{cfg: cfg, rng: sim.NewRNG(cfg.Seed ^ 0x7d51fe)}
	centre := float64(gridMax) / 2
	spread := float64(gridMax) / 8
	for i := 0; i < cfg.Taxis; i++ {
		t.x = append(t.x, t.clamp(t.rng.Norm(centre, spread)))
		t.y = append(t.y, t.clamp(t.rng.Norm(centre, spread)))
	}
	return t
}

func (t *TDrive) clamp(v float64) uint32 {
	if v < 0 {
		return 0
	}
	if v > float64(gridMax) {
		return gridMax
	}
	return uint32(v)
}

// Name implements Generator.
func (t *TDrive) Name() string { return "t-drive" }

// keyFor builds the index key: z-code in the high bits, a sequence number
// in the low 16 bits so multiple reports per cell stay unique (the paper
// stores taxi id + timestamp attributes; the value carries them here).
func (t *TDrive) keyFor(x, y uint32) uint64 {
	t.seq++
	return zorder.Encode(x, y)<<16 | (t.seq & 0xFFFF)
}

// record encodes (taxi, timestamp-ish seq) as the stored value.
func record(taxi int, seq uint64) []byte {
	v := make([]byte, 12)
	binary.LittleEndian.PutUint32(v[0:4], uint32(taxi))
	binary.LittleEndian.PutUint64(v[4:12], seq)
	return v
}

// step moves a taxi one random-walk step.
func (t *TDrive) step(i int) {
	dx := int64(t.rng.Uint64n(3)) - 1
	dy := int64(t.rng.Uint64n(3)) - 1
	t.x[i] = t.clamp(float64(int64(t.x[i]) + dx))
	t.y[i] = t.clamp(float64(int64(t.y[i]) + dy))
}

// Preload implements Generator.
func (t *TDrive) Preload() []core.KV {
	pairs := make([]core.KV, 0, t.cfg.PreloadRecords)
	for r := 0; r < t.cfg.PreloadRecords; r++ {
		i := t.rng.Intn(t.cfg.Taxis)
		t.step(i)
		pairs = append(pairs, core.KV{Key: t.keyFor(t.x[i], t.y[i]), Value: record(i, t.seq)})
	}
	sortKVs(pairs)
	return dedupKVs(pairs)
}

// Next implements Generator: 70% position-report inserts, 30% z-code
// range queries around a (skewed) random taxi.
func (t *TDrive) Next() Op {
	i := t.rng.Intn(t.cfg.Taxis)
	if int(t.rng.Uint64n(100)) < t.cfg.UpdatePercent {
		t.step(i)
		return Op{Kind: OpInsert, Key: t.keyFor(t.x[i], t.y[i]), Value: record(i, t.seq)}
	}
	// Query the window around taxi i's position.
	x0, y0 := t.x[i], t.y[i]
	x1, y1 := min(x0+rangeCells, gridMax), min(y0+rangeCells, gridMax)
	lo, hi := zorder.RangeOf(x0, y0, x1, y1)
	return Op{Kind: OpRange, Key: lo << 16, EndKey: hi<<16 | 0xFFFF, Limit: 256}
}
