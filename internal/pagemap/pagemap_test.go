package pagemap

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/patree/patree/internal/storage"
)

// collidingIDs returns n page IDs whose hashes share their top 10 bits, so
// they share a home slot in every table of up to 1024 slots.
func collidingIDs(n int) []storage.PageID {
	var m Map[int]
	m.shift = 64 - 10
	want := m.home(1)
	var ids []storage.PageID
	for id := storage.PageID(1); len(ids) < n; id++ {
		if m.home(uint64(id)+1) == want {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestMapMatchesModel drives a Map and a Go map with the same random
// Put/Get/Delete/Clear stream over a pool of keys that mostly collide —
// 0 and 2^64-1 among them — through growth and backward-shift deletes,
// and compares every answer and the full key set after each step.
func TestMapMatchesModel(t *testing.T) {
	pool := append(collidingIDs(40), 0, math.MaxUint64, math.MaxUint64-1)
	for id := storage.PageID(1); id <= 24; id++ {
		pool = append(pool, id)
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m Map[int]
		model := map[storage.PageID]int{}
		for step := 0; step < 3000; step++ {
			id := pool[rng.Intn(len(pool))]
			switch r := rng.Intn(100); {
			case r < 45:
				m.Put(id, step)
				model[id] = step
			case r < 85:
				_, inModel := model[id]
				if got := m.Delete(id); got != inModel {
					t.Fatalf("seed %d step %d: Delete(%d) = %v, model has it: %v", seed, step, id, got, inModel)
				}
				delete(model, id)
			case r < 99:
				v, ok := m.Get(id)
				mv, mok := model[id]
				if ok != mok || v != mv {
					t.Fatalf("seed %d step %d: Get(%d) = %d,%v, model %d,%v", seed, step, id, v, ok, mv, mok)
				}
			default:
				m.Clear()
				clear(model)
			}
			if m.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, model %d", seed, step, m.Len(), len(model))
			}
			for k, mv := range model {
				if v, ok := m.Get(k); !ok || v != mv {
					t.Fatalf("seed %d step %d: Get(%d) = %d,%v, model %d", seed, step, k, v, ok, mv)
				}
			}
			keys := m.Keys(nil)
			slices.Sort(keys)
			var want []storage.PageID
			for k := range model {
				want = append(want, k)
			}
			slices.Sort(want)
			if !slices.Equal(keys, want) {
				t.Fatalf("seed %d step %d: Keys = %v, model %v", seed, step, keys, want)
			}
		}
	}
}

// TestMapZeroValue checks that the zero Map answers every read and
// allocates on its first Put.
func TestMapZeroValue(t *testing.T) {
	var m Map[[]byte]
	if v, ok := m.Get(0); ok || v != nil {
		t.Fatalf("Get on zero Map = %v,%v", v, ok)
	}
	if m.Delete(7) || m.Len() != 0 || m.Slots() != 0 || len(m.Keys(nil)) != 0 {
		t.Fatal("zero Map is not empty")
	}
	m.Clear()
	m.Put(math.MaxUint64, []byte("max"))
	if v, ok := m.Get(math.MaxUint64); !ok || string(v) != "max" || m.Len() != 1 {
		t.Fatalf("after Put(2^64-1): Get = %q,%v, Len %d", v, ok, m.Len())
	}
	m.Put(0, nil)
	if m.Len() != 2 || m.Slots() > shrinkFloor {
		t.Fatalf("after Put(0): Len %d with %d slots, want 2 with %d", m.Len(), m.Slots(), minSlots)
	}
}

// TestMapSlotsFollowLiveEntries churns many distinct IDs through a Map
// that never holds more than a hundred at once, then drains it: the slot
// array is sized by the live entries, not by how many IDs it has seen or
// by its peak.
func TestMapSlotsFollowLiveEntries(t *testing.T) {
	var m Map[int]
	const live = 100
	for id := storage.PageID(0); id < 100*live; id++ {
		m.Put(id, int(id))
		if id >= live {
			m.Delete(id - live)
		}
	}
	if m.Len() != live || m.Slots() > 4*live {
		t.Fatalf("Len %d, Slots %d: want %d live in at most %d slots", m.Len(), m.Slots(), live, 4*live)
	}
	for id := storage.PageID(100*live - live); id < 100*live-1; id++ {
		m.Delete(id)
	}
	if v, ok := m.Get(100*live - 1); !ok || v != 100*live-1 || m.Len() != 1 || m.Slots() > shrinkFloor {
		t.Fatalf("after draining to one entry: Get = %d,%v, Len %d, Slots %d, want at most %d slots", v, ok, m.Len(), m.Slots(), shrinkFloor)
	}
}
