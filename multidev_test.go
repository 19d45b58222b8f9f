package patree

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/patree/patree/internal/nvme"
)

// ramDevices builds m RAM devices sized blocks each, closed on cleanup.
func ramDevices(t testing.TB, m int, blocks uint64) []nvme.Device {
	t.Helper()
	devs := make([]nvme.Device, m)
	for i := range devs {
		d := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: blocks})
		t.Cleanup(func() { d.Close() })
		devs[i] = d
	}
	return devs
}

// TestMultiDevicePropertyOps sweeps the topology grid {1,2,4,8} shards ×
// {1,2,4} devices (skipping topologies with more devices than shards)
// and runs the randomized flat-map oracle stream over each: the public
// surface must be indistinguishable from the single-worker tree at every
// topology, and Stats must report the device count.
func TestMultiDevicePropertyOps(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		for _, m := range []int{1, 2, 4} {
			if m > n {
				continue
			}
			n, m := n, m
			t.Run(fmt.Sprintf("shards=%d/devices=%d", n, m), func(t *testing.T) {
				t.Parallel()
				db, err := Open(Options{
					Devices:     ramDevices(t, m, 1<<15),
					Shards:      n,
					BufferPages: 1024,
				})
				if err != nil {
					t.Fatalf("open %d×%d: %v", n, m, err)
				}
				defer db.Close()
				ops := 1500
				if testing.Short() {
					ops = 400
				}
				model := runShardedOps(t, db, n, int64(8800+n*10+m), ops)
				st := db.Stats()
				if st.Shards != n || st.Devices != m {
					t.Fatalf("Stats topology = %d×%d, want %d×%d", st.Shards, st.Devices, n, m)
				}
				if st.NumKeys != uint64(len(model)) {
					t.Fatalf("Stats.NumKeys = %d, oracle %d", st.NumKeys, len(model))
				}
			})
		}
	}
}

// TestMultiDeviceReopen verifies the N×M layout round-trips: keys
// written across shards on several devices survive Close and reopen
// with the same device list, with journaling on.
func TestMultiDeviceReopen(t *testing.T) {
	devs := ramDevices(t, 2, 1<<15)
	open := func() *DB {
		db, err := Open(Options{Devices: devs, Shards: 4, Journal: true})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return db
	}
	db := open()
	const n = 400
	for k := uint64(1); k <= n; k++ {
		if err := db.Put(k, []byte(fmt.Sprintf("v%d", k))); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db = open()
	defer db.Close()
	for k := uint64(1); k <= n; k++ {
		v, ok, err := db.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", k) {
			t.Fatalf("get %d after reopen: %q/%v/%v", k, v, ok, err)
		}
	}
	if st := db.Stats(); st.NumKeys != n || st.Shards != 4 || st.Devices != 2 {
		t.Fatalf("stats after reopen: %+v", st)
	}
}

// TestMultiDeviceTopologyMismatch verifies the superblock-stamped device
// identity: a set of devices formatted as one topology refuses to open
// as another — fewer devices, more devices, or the same devices in a
// different order — each with an error naming the device mismatch.
func TestMultiDeviceTopologyMismatch(t *testing.T) {
	devs := ramDevices(t, 2, 1<<15)
	db, err := Open(Options{Devices: devs, Shards: 4})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	db.Put(7, []byte("x"))
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	refuse := func(label string, opts Options) {
		t.Helper()
		if db, err := Open(opts); err == nil {
			db.Close()
			t.Fatalf("%s succeeded", label)
		} else if !strings.Contains(err.Error(), "device") {
			t.Fatalf("%s error does not mention the device topology: %v", label, err)
		}
	}
	// Fewer devices than formatted: the first shard's superblock says
	// "device 0 of 2", a single-device open expects 0 of 0.
	refuse("reopening a 4×2 layout on one device", Options{Devices: devs[:1], Shards: 4})
	refuse("reopening a 4×2 layout on one device (classic path)", Options{Device: devs[0], Shards: 4})
	// More devices than formatted.
	extra := ramDevices(t, 1, 1<<15)
	refuse("reopening a 4×2 layout on three devices", Options{Devices: []nvme.Device{devs[0], devs[1], extra[0]}, Shards: 4})
	// Same devices, swapped order: the partition that should hold shard 0
	// (placed on device 0) actually holds a shard stamped device 1.
	refuse("reopening a 4×2 layout with devices swapped", Options{Devices: []nvme.Device{devs[1], devs[0]}, Shards: 4})
	// Same devices, different placement: shard-to-device assignment moved.
	refuse("reopening a 4×2 layout with a different placement", Options{Devices: devs, Shards: 4, Placement: []int{0, 0, 1, 1}})

	// The matching topology still opens, data intact.
	db, err = Open(Options{Devices: devs, Shards: 4})
	if err != nil {
		t.Fatalf("matching reopen: %v", err)
	}
	defer db.Close()
	if v, ok, err := db.Get(7); err != nil || !ok || string(v) != "x" {
		t.Fatalf("get after matching reopen: %q/%v/%v", v, ok, err)
	}
}

// TestMultiDeviceOptionsValidation pins the Open-time refusals: both
// device fields set, more devices than shards, a device left without a
// shard, out-of-range or short placements, and a too-small device.
func TestMultiDeviceOptionsValidation(t *testing.T) {
	devs := ramDevices(t, 2, 1<<15)
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"both device fields", Options{Device: devs[0], Devices: devs, Shards: 2}, "not both"},
		{"more devices than shards", Options{Devices: devs, Shards: 1}, "every device"},
		{"placement starves a device", Options{Devices: devs, Shards: 2, Placement: []int{0, 0}}, "hosts no shards"},
		{"placement out of range", Options{Devices: devs, Shards: 2, Placement: []int{0, 5}}, "placed on device"},
		{"placement too short", Options{Devices: devs, Shards: 4, Placement: []int{0, 1}}, "placement"},
		{"single-device placement out of range", Options{Devices: devs[:1], Shards: 2, Placement: []int{0, 1}}, "have 1 device"},
	}
	for _, tc := range cases {
		if db, err := Open(tc.opts); err == nil {
			db.Close()
			t.Errorf("%s: open succeeded", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}

	// Too small: each of 4 shards on one 2048-block device gets 512
	// blocks, under the per-shard floor.
	small := ramDevices(t, 2, 2048)
	if db, err := Open(Options{Devices: small, Shards: 8}); err == nil {
		db.Close()
		t.Error("8 shards across two 2048-block devices succeeded")
	} else if !strings.Contains(err.Error(), "too small") {
		t.Errorf("too-small error: %v", err)
	}
}

// TestMultiDeviceExplicitPlacement verifies a non-default placement
// works end to end and round-trips: shards packed onto devices
// explicitly, reopened with the same placement.
func TestMultiDeviceExplicitPlacement(t *testing.T) {
	devs := ramDevices(t, 2, 1<<15)
	place := []int{0, 0, 0, 1} // three shards on device 0, one on device 1
	db, err := Open(Options{Devices: devs, Shards: 4, Placement: place})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for k := uint64(1); k <= 300; k++ {
		if err := db.Put(k, []byte{byte(k)}); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	db, err = Open(Options{Devices: devs, Shards: 4, Placement: place})
	if err != nil {
		t.Fatalf("reopen with explicit placement: %v", err)
	}
	defer db.Close()
	for k := uint64(1); k <= 300; k++ {
		v, ok, err := db.Get(k)
		if err != nil || !ok || !bytes.Equal(v, []byte{byte(k)}) {
			t.Fatalf("get %d: %q/%v/%v", k, v, ok, err)
		}
	}
}

// TestMultiDeviceRaceHammer hammers the largest tested topology — 8
// shards over 4 devices — from many goroutines with Close racing the
// tail. Run under -race.
// Every handle must resolve with nil or ErrClosed.
func TestMultiDeviceRaceHammer(t *testing.T) {
	db, err := Open(Options{
		Devices: ramDevices(t, 4, 1<<15),
		Shards:  8,
		Trace:   true,
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	const (
		workers = 8
		opsEach = 250
	)
	var resolved atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*37 + 5))
			for i := 0; i < opsEach; i++ {
				key := 1 + uint64(rng.Intn(512))
				var h *Handle
				var err error
				switch rng.Intn(12) {
				case 0, 1, 2:
					h, err = db.PutAsync(key, []byte(fmt.Sprintf("w%d-%d", w, i)))
				case 3, 4, 5:
					h, err = db.GetAsync(key)
				case 6:
					h, err = db.ScanAsync(key, key+64, 8)
				case 7:
					h, err = db.SyncAsync()
				case 8:
					// Synchronous Get: the blocking spelling.
					if _, _, gerr := db.Get(key); gerr != nil && !errors.Is(gerr, ErrClosed) {
						t.Errorf("get: %v", gerr)
					}
					resolved.Add(1)
					continue
				case 9:
					b := db.NewBatch()
					for j := 0; j < 8; j++ {
						b.Put(key+uint64(j), []byte("b"))
					}
					if cerr := b.TryCommit(); cerr != nil {
						if !errors.Is(cerr, ErrBacklog) && !errors.Is(cerr, ErrClosed) {
							t.Errorf("trycommit: %v", cerr)
						}
						b.Release()
						resolved.Add(1)
						continue
					}
					if werr := b.Wait(); werr != nil && !errors.Is(werr, ErrClosed) {
						t.Errorf("batch wait: %v", werr)
					}
					b.Release()
					resolved.Add(1)
					continue
				case 10:
					db.Stats()
					resolved.Add(1)
					continue
				default:
					if rng.Intn(2) == 0 {
						db.Metrics()
					} else {
						db.WriteTrace(io.Discard)
					}
					resolved.Add(1)
					continue
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("admit: %v", err)
					}
					resolved.Add(1)
					continue
				}
				if werr := h.Wait(); werr != nil && !errors.Is(werr, ErrClosed) {
					t.Errorf("handle resolved with unexpected error: %v", werr)
				}
				h.Release()
				resolved.Add(1)
			}
		}(w)
	}
	closeErr := make(chan error, 1)
	go func() { closeErr <- db.Close() }()
	wg.Wait()
	if err := <-closeErr; err != nil {
		t.Fatalf("close: %v", err)
	}
	if got, want := resolved.Load(), uint64(workers*opsEach); got != want {
		t.Fatalf("%d of %d operations resolved", got, want)
	}
}

// FuzzMultiDeviceOps mirrors FuzzShardedOps over a 4-shard × 2-device
// topology: a byte stream becomes a sequence of point ops and scans
// checked against a flat map oracle, with a final close/reopen cycle
// asserting the cross-device layout persisted.
func FuzzMultiDeviceOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 1, 0, 1, 5, 2, 0, 1, 0})
	f.Add([]byte{4, 1, 0, 3, 0, 1, 0, 7, 3, 0, 0, 0, 2, 1, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 2, 3, 9, 1, 2, 3, 0, 4, 0, 200, 3}, 30))
	f.Fuzz(func(t *testing.T, data []byte) {
		const chunk = 4
		ops := len(data) / chunk
		if ops == 0 {
			t.Skip()
		}
		if ops > 400 {
			ops = 400
		}
		devs := make([]nvme.Device, 2)
		for i := range devs {
			d := nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 14})
			defer d.Close()
			devs[i] = d
		}
		db, err := Open(Options{Devices: devs, Shards: 4, BufferPages: 512})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		model := map[uint64][]byte{}
		for i := 0; i < ops; i++ {
			b := data[i*chunk : (i+1)*chunk]
			key := 1 + uint64(b[1])%200 + uint64(b[2])%50*7
			val := []byte{b[3], byte(key), byte(i)}
			switch b[0] % 6 {
			case 0, 1: // put
				if err := db.Put(key, val); err != nil {
					t.Fatalf("op %d: put %d: %v", i, key, err)
				}
				model[key] = append([]byte(nil), val...)
			case 2: // delete
				_, existed := model[key]
				found, err := db.Delete(key)
				if err != nil {
					t.Fatalf("op %d: delete %d: %v", i, key, err)
				}
				if found != existed {
					t.Fatalf("op %d: delete %d found=%v, model %v", i, key, found, existed)
				}
				delete(model, key)
			case 3: // get
				want, existed := model[key]
				v, found, err := db.Get(key)
				if err != nil {
					t.Fatalf("op %d: get %d: %v", i, key, err)
				}
				if found != existed || (existed && !bytes.Equal(v, want)) {
					t.Fatalf("op %d: get %d = %q/%v, model %q/%v", i, key, v, found, want, existed)
				}
			case 4: // update
				_, existed := model[key]
				found, err := db.Update(key, val)
				if err != nil {
					t.Fatalf("op %d: update %d: %v", i, key, err)
				}
				if found != existed {
					t.Fatalf("op %d: update %d found=%v, model %v", i, key, found, existed)
				}
				if existed {
					model[key] = append([]byte(nil), val...)
				}
			default: // scan
				lo := uint64(b[1])
				hi := lo + uint64(b[3])*3
				limit := int(b[2]) % 5 // 0 = all
				pairs, err := db.Scan(lo, hi, limit)
				if err != nil {
					t.Fatalf("op %d: scan [%d,%d] limit %d: %v", i, lo, hi, limit, err)
				}
				checkScan(t, fmt.Sprintf("op=%d scan[%d,%d]l%d", i, lo, hi, limit),
					pairs, oracleScan(model, lo, hi, limit))
			}
		}
		if err := db.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		db, err = Open(Options{Devices: devs, Shards: 4, BufferPages: 512})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer db.Close()
		pairs, err := db.Scan(0, ^uint64(0), 0)
		if err != nil {
			t.Fatalf("final scan: %v", err)
		}
		checkScan(t, "after reopen", pairs, oracleScan(model, 0, ^uint64(0), 0))
	})
}
