package nvme

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/patree/patree/internal/sim"
)

// imageDevice is what both devices expose of their block store beside
// the queue pairs.
type imageDevice interface {
	Device
	ReadAt(lba uint64, buf []byte)
	WriteAt(lba uint64, buf []byte)
	ImageSnapshot() map[uint64][]byte
	LoadImage(img map[uint64][]byte)
}

// eachDevice runs f against a fresh RAM and a fresh simulated device of
// the given capacity.
func eachDevice(t *testing.T, blocks uint64, f func(t *testing.T, d imageDevice)) {
	t.Run("ram", func(t *testing.T) { f(t, NewRAMDevice(RAMConfig{NumBlocks: blocks})) })
	t.Run("sim", func(t *testing.T) { f(t, NewSimDevice(sim.NewEngine(), SimConfig{Seed: 3, NumBlocks: blocks})) })
}

// command submits cmd on a fresh queue pair of d and reaps it.
func command(t *testing.T, d imageDevice, cmd *Command) {
	t.Helper()
	qp, err := d.AllocQueuePair(4)
	if err != nil {
		t.Fatal(err)
	}
	var got error = ErrTimeout
	cmd.Callback = func(c Completion) { got = c.Err }
	if err := qp.Submit(cmd); err != nil {
		t.Fatal(err)
	}
	if s, ok := d.(*SimDevice); ok {
		s.Advance()
	}
	qp.Probe(0)
	if got != nil {
		t.Fatalf("%v at %d: %v", cmd.Op, cmd.LBA, got)
	}
}

// pattern returns n bytes that differ from block to block and from seed
// to seed.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7+i/512) ^ seed
	}
	return b
}

// TestStoreCrossExtent moves multi-block runs across extent boundaries,
// by command and directly, and reads them back both ways.
func TestStoreCrossExtent(t *testing.T) {
	eachDevice(t, 1024, func(t *testing.T, d imageDevice) {
		// Blocks 60..69 span extents 0 and 1; 120..259 span 1..4.
		src := pattern(10*512, 1)
		command(t, d, &Command{Op: OpWrite, LBA: 60, Blocks: 10, Buf: src})
		got := make([]byte, len(src))
		d.ReadAt(60, got)
		if !bytes.Equal(got, src) {
			t.Fatal("direct read of a command write across an extent boundary differs")
		}
		big := pattern(140*512, 2)
		d.WriteAt(120, big)
		got = make([]byte, len(big))
		command(t, d, &Command{Op: OpRead, LBA: 120, Blocks: 140, Buf: got})
		if !bytes.Equal(got, big) {
			t.Fatal("command read of a direct write across four extents differs")
		}
		if img := d.ImageSnapshot(); len(img) != 150 {
			t.Fatalf("image holds %d blocks, want 150", len(img))
		}
	})
}

// TestStoreUnwrittenReadsZero: a block never written reads as zeros,
// whether its extent is absent or holds other written blocks, and it is
// not in the image.
func TestStoreUnwrittenReadsZero(t *testing.T) {
	eachDevice(t, 1024, func(t *testing.T, d imageDevice) {
		d.WriteAt(65, pattern(512, 3))
		for _, lba := range []uint64{64, 66, 127, 500} {
			buf := bytes.Repeat([]byte{0xff}, 2*512)
			command(t, d, &Command{Op: OpRead, LBA: lba, Blocks: 1, Buf: buf})
			d.ReadAt(lba, buf[512:])
			if !bytes.Equal(buf, make([]byte, len(buf))) {
				t.Fatalf("unwritten block %d reads non-zero", lba)
			}
		}
		if img := d.ImageSnapshot(); len(img) != 1 || img[65] == nil {
			t.Fatalf("image holds %d blocks, want only block 65", len(img))
		}
	})
}

// TestStorePartialBlockWrite: a WriteAt that ends mid-block zero-fills
// the rest of that block, and a short ReadAt reads a block's prefix.
func TestStorePartialBlockWrite(t *testing.T) {
	eachDevice(t, 1024, func(t *testing.T, d imageDevice) {
		d.WriteAt(63, bytes.Repeat([]byte{0xff}, 2*512))
		d.WriteAt(63, bytes.Repeat([]byte{0x11}, 512+100))
		want := append(bytes.Repeat([]byte{0x11}, 512+100), make([]byte, 412)...)
		got := make([]byte, 2*512)
		d.ReadAt(63, got)
		if !bytes.Equal(got, want) {
			t.Fatal("the tail of a partly written block was not zero-filled")
		}
		img := d.ImageSnapshot()
		if len(img) != 2 || !bytes.Equal(img[64], want[512:]) {
			t.Fatalf("image after a partial write: %d blocks, block 64 %d bytes", len(img), len(img[64]))
		}
		short := make([]byte, 100)
		d.ReadAt(64, short)
		if !bytes.Equal(short, want[512:612]) {
			t.Fatal("a short read did not return the block's prefix")
		}
	})
}

// TestStoreImageProperty checks ImageSnapshot and ReadAt against a plain
// map of blocks over a seeded stream of command writes, direct writes
// (some ending mid-block) and image reloads.
func TestStoreImageProperty(t *testing.T) {
	const blocks = 400
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			eachDevice(t, blocks, func(t *testing.T, d imageDevice) {
				rng := rand.New(rand.NewPCG(seed, 7))
				model := map[uint64][]byte{}
				for step := 0; step < 300; step++ {
					lba := rng.Uint64N(blocks - 8)
					n := 1 + rng.IntN(8)
					switch op := rng.IntN(10); {
					case op < 4:
						buf := pattern(n*512, byte(step))
						command(t, d, &Command{Op: OpWrite, LBA: lba, Blocks: n, Buf: buf})
						modelWrite(model, lba, buf)
					case op < 9:
						buf := pattern(n*512-rng.IntN(512), byte(step))
						d.WriteAt(lba, buf)
						modelWrite(model, lba, buf)
					default:
						img := d.ImageSnapshot()
						for b := range img {
							if rng.IntN(4) == 0 {
								delete(img, b)
								delete(model, b)
							}
						}
						d.LoadImage(img)
					}
					got := make([]byte, n*512)
					d.ReadAt(lba, got)
					for i := 0; i < n; i++ {
						want := model[lba+uint64(i)]
						if want == nil {
							want = make([]byte, 512)
						}
						if !bytes.Equal(got[i*512:(i+1)*512], want) {
							t.Fatalf("seed %d step %d: block %d differs from the model", seed, step, lba+uint64(i))
						}
					}
				}
				if img := d.ImageSnapshot(); !reflect.DeepEqual(img, model) {
					t.Fatalf("seed %d: image has %d blocks, model %d, or their bytes differ", seed, len(img), len(model))
				}
			})
		})
	}
}

// modelWrite applies a WriteAt to the plain block map: whole blocks, the
// last one zero-filled past the end of buf.
func modelWrite(model map[uint64][]byte, lba uint64, buf []byte) {
	for i := 0; i*512 < len(buf); i++ {
		blk := make([]byte, 512)
		copy(blk, buf[i*512:])
		model[lba+uint64(i)] = blk
	}
}

// TestStoreGrowsWithExtentsWritten: memory follows the extents written,
// not the capacity — the first and last block of a default-size (64 M
// block) simulated device take two extents.
func TestStoreGrowsWithExtentsWritten(t *testing.T) {
	d := NewSimDevice(sim.NewEngine(), SimConfig{Seed: 1})
	d.WriteAt(0, pattern(512, 1))
	d.WriteAt(d.NumBlocks()-1, pattern(512, 2))
	if n := d.store.extents.Len(); n != 2 {
		t.Fatalf("%d extents for two blocks at opposite ends", n)
	}
	if img := d.ImageSnapshot(); len(img) != 2 || img[d.NumBlocks()-1] == nil {
		t.Fatalf("image holds %d blocks, want the first and the last", len(img))
	}
}

// BenchmarkDeviceCommand measures one 1-block command's host cost on the
// RAM device, a Submit and the Probe that reaps it, at random LBAs over a
// written 40 K-block image: reads, and overwrites of written blocks.
func BenchmarkDeviceCommand(b *testing.B) {
	const blocks = 40_000
	rng := rand.New(rand.NewPCG(1, 2))
	lbas := make([]uint64, 4096)
	for i := range lbas {
		lbas[i] = rng.Uint64N(blocks)
	}
	for _, op := range []Opcode{OpRead, OpWrite} {
		b.Run(op.String(), func(b *testing.B) {
			d := NewRAMDevice(RAMConfig{})
			defer d.Close()
			d.WriteAt(0, make([]byte, blocks*512))
			qp, _ := d.AllocQueuePair(8)
			cmd := &Command{Op: op, Blocks: 1, Buf: make([]byte, 512)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cmd.LBA = lbas[i%len(lbas)]
				if err := qp.Submit(cmd); err != nil {
					b.Fatal(err)
				}
				qp.Probe(0)
			}
		})
	}
}
