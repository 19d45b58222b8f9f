package patree

import (
	"fmt"
	"strings"
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
				ops := 1500
				if testing.Short() {
					ops = 400
				}
				runOracle(t, randomStream(int64(8800+n*10+m), ops), dbTarget{shards: n, devices: m, buffer: 1024, sp: mixed,
					check: func(t *testing.T, db *DB, model map[uint64][]byte) {
						st := db.Stats()
						if st.Shards != n || st.Devices != m {
							t.Fatalf("Stats topology = %d×%d, want %d×%d", st.Shards, st.Devices, n, m)
						}
						if st.NumKeys != uint64(len(model)) {
							t.Fatalf("Stats.NumKeys = %d, oracle %d", st.NumKeys, len(model))
						}
					}})
			})
		}
	}
}

// TestMultiDeviceReopen verifies the N×M layout round-trips: keys
// written across shards on several devices survive Close and reopen
// with the same device list, with journaling on.
func TestMultiDeviceReopen(t *testing.T) {
	runOracle(t, putStream(400), dbTarget{shards: 4, devices: 2, journal: true, sp: mixed, reopen: true,
		check: func(t *testing.T, db *DB, _ map[uint64][]byte) {
			if st := db.Stats(); st.NumKeys != 400 || st.Shards != 4 || st.Devices != 2 {
				t.Fatalf("stats after reopen: %+v", st)
			}
		}})
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
// device fields set, more devices than shards (a device left without a
// shard), and a too-small device.
func TestMultiDeviceOptionsValidation(t *testing.T) {
	devs := ramDevices(t, 2, 1<<15)
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"both device fields", Options{Device: devs[0], Devices: devs, Shards: 2}, "not both"},
		{"more devices than shards", Options{Devices: devs, Shards: 1}, "every device"},
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

// TestMultiDeviceRaceHammer hammers the largest tested topology — 8
// shards over 4 devices — from many goroutines with Close racing the
// tail, blocking Gets and TryCommit batches included. Run under -race.
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
	raceHammer(t, db, func(w int) int64 { return int64(w)*37 + 5 }, 12)
}

// FuzzMultiDeviceOps runs the fuzzed op stream through 4 shards over 2
// RAM devices with a close/reopen cycle before the final scan, asserting
// the cross-device layout persisted.
func FuzzMultiDeviceOps(f *testing.F) {
	addStreamSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzOracle(t, data, 400, dbTarget{shards: 4, devices: 2, buffer: 512, sp: mixed, reopen: true})
	})
}
