package workload

import (
	"encoding/binary"

	"github.com/patree/patree/internal/core"
	"github.com/patree/patree/internal/sim"
)

// recordBytes is the order record size, the paper's 108-byte average.
const recordBytes = 108

// SSEConfig parameterizes the synthetic stock-order workload standing in
// for the proprietary Shanghai Stock Exchange traces: orders on
// Zipf-popular stocks at mean-reverting prices, stored under composite
// (stock, price, seq) keys so a new order can be matched against
// outstanding orders with a range lookup. Records average 108 bytes and
// 28% of operations are updates, per the paper.
type SSEConfig struct {
	// Stocks is the number of listed instruments.
	Stocks int
	// PreloadOrders is the initial book size.
	PreloadOrders int
	// UpdatePercent is the share of order insertions (default 28).
	UpdatePercent int
	// Theta is the stock-popularity skew.
	Theta float64
	// Seed drives the generator.
	Seed uint64
}

func (c SSEConfig) withDefaults() SSEConfig {
	if c.Stocks <= 0 {
		c.Stocks = 2000
	}
	if c.PreloadOrders <= 0 {
		c.PreloadOrders = 1 << 20
	}
	if c.UpdatePercent <= 0 {
		c.UpdatePercent = 28
	}
	if c.Theta == 0 {
		c.Theta = 0.6
	}
	return c
}

// SSE generates the order-book workload.
type SSE struct {
	cfg    SSEConfig
	rng    *sim.RNG
	zipf   *Zipf
	prices []float64 // per-stock mid price (ticks)
	seq    uint64
}

// NewSSE builds the generator.
func NewSSE(cfg SSEConfig) *SSE {
	cfg = cfg.withDefaults()
	rng := sim.NewRNG(cfg.Seed ^ 0x55e)
	s := &SSE{
		cfg:  cfg,
		rng:  rng,
		zipf: NewZipf(rng.Split(), uint64(cfg.Stocks), cfg.Theta),
	}
	for i := 0; i < cfg.Stocks; i++ {
		s.prices = append(s.prices, 1000+rng.Float64()*9000)
	}
	return s
}

// Name implements Generator.
func (s *SSE) Name() string { return "sse" }

// Key layout: stock id (high 12 bits) | price in ticks (20 bits) | seq
// (low 32 bits). Orders of one stock cluster; within a stock they sort by
// price — exactly the structure order matching scans.
func sseKey(stock int, price uint32, seq uint64) uint64 {
	return uint64(stock&0xFFF)<<52 | uint64(price&0xFFFFF)<<32 | (seq & 0xFFFFFFFF)
}

// tick evolves a stock price (mean-reverting noise).
func (s *SSE) tick(stock int) uint32 {
	p := s.prices[stock]
	p += s.rng.Norm(0, 5) - (p-5000)*0.001
	if p < 1 {
		p = 1
	}
	if p > (1<<20)-1 {
		p = (1 << 20) - 1
	}
	s.prices[stock] = p
	return uint32(p)
}

// order builds a ~108-byte order record.
func (s *SSE) order(stock int, price uint32) []byte {
	v := make([]byte, recordBytes)
	binary.LittleEndian.PutUint32(v[0:4], uint32(stock))
	binary.LittleEndian.PutUint32(v[4:8], price)
	binary.LittleEndian.PutUint64(v[8:16], s.seq)
	s.rng.FillBytes(v[16:]) // user id, volume, flags, padding
	return v
}

// Preload implements Generator.
func (s *SSE) Preload() []core.KV {
	pairs := make([]core.KV, 0, s.cfg.PreloadOrders)
	for i := 0; i < s.cfg.PreloadOrders; i++ {
		stock := int(s.zipf.Next())
		price := s.tick(stock)
		s.seq++
		pairs = append(pairs, core.KV{Key: sseKey(stock, price, s.seq), Value: s.order(stock, price)})
	}
	sortKVs(pairs)
	return dedupKVs(pairs)
}

// Next implements Generator: 28% new-order inserts; the rest are matching
// lookups — range scans over the price band of a stock.
func (s *SSE) Next() Op {
	stock := int(s.zipf.Next())
	price := s.tick(stock)
	if int(s.rng.Uint64n(100)) < s.cfg.UpdatePercent {
		s.seq++
		return Op{Kind: OpInsert, Key: sseKey(stock, price, s.seq), Value: s.order(stock, price)}
	}
	// Match window: orders of this stock within ±16 ticks.
	loPrice := uint32(0)
	if price > 16 {
		loPrice = price - 16
	}
	hiPrice := price + 16
	if hiPrice > (1<<20)-1 {
		hiPrice = (1 << 20) - 1
	}
	return Op{
		Kind:   OpRange,
		Key:    sseKey(stock, loPrice, 0),
		EndKey: sseKey(stock, hiPrice, 0xFFFFFFFF),
		Limit:  64,
	}
}
