package patree

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/patree/patree/internal/nvme"
)

// slowDevice makes every Submit take the delay it holds (0: none), on
// the calling thread, so the worker is busy in each device command and
// ops pile up behind it. slowed counts the delayed Submits.
type slowDevice struct {
	nvme.Device
	delay  atomic.Int64 // nanoseconds
	slowed atomic.Int64
}

func (d *slowDevice) AllocQueuePair(depth int) (nvme.QueuePair, error) {
	qp, err := d.Device.AllocQueuePair(depth)
	return &slowQP{QueuePair: qp, dev: d}, err
}

type slowQP struct {
	nvme.QueuePair
	dev *slowDevice
}

func (q *slowQP) Submit(cmd *nvme.Command) error {
	if d := q.dev.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
		q.dev.slowed.Add(1)
	}
	return q.QueuePair.Submit(cmd)
}

// TestStatsUnderFullRing: an admin snapshot does not queue for the
// admission ring. 32 readers keep an 8-slot ring full in front of a
// worker whose every device command takes 50 ms: each Get misses a
// 16-page buffer, so every one ahead in the ready queue costs a command.
// Stats is served between two loop passes all the same, well within a
// second, and reports the admissions that found the ring full. Admitted
// as an op, it would wait for a slot and then behind every Get drained
// before it.
func TestStatsUnderFullRing(t *testing.T) {
	dev := &slowDevice{Device: nvme.NewRAMDevice(nvme.RAMConfig{NumBlocks: 1 << 16})}
	db, err := Open(Options{Device: dev, InboxDepth: 8, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const keys = 4096
	b := db.NewBatch()
	for k := range uint64(keys) {
		b.Put(k, []byte("0123456789abcdef"))
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	b.Release()

	var stop atomic.Bool
	var wg sync.WaitGroup
	defer func() {
		dev.delay.Store(0)
		stop.Store(true)
		wg.Wait()
	}()
	dev.delay.Store(int64(50 * time.Millisecond))
	for g := range 32 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				// A stride across leaves: every Get misses.
				k := uint64(g*131+i*997) % keys
				if _, ok, err := db.Get(k); !ok || err != nil {
					t.Errorf("Get(%d) = %v, %v", k, ok, err)
					return
				}
			}
		}()
	}
	// The readers fill the ring while the worker sits in its first slow
	// command; by the third, a queue of Gets is ahead of any newcomer.
	for dev.slowed.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	st := db.Stats()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Stats took %v behind a full ring, want under 1 s", took)
	}
	if st.AdmitWaits == 0 {
		t.Fatal("no admission found the ring full: the test never loaded it")
	}
}
