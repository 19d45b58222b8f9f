package syncbtree

import (
	"github.com/patree/patree/internal/buffer"
	"github.com/patree/patree/internal/simos"
	"github.com/patree/patree/internal/storage"
)

// Cache is a shared page cache for the multi-threaded baselines. The
// underlying buffer is the W-TinyLFU one PA-Tree uses (internal/buffer),
// so every tree compared runs one replacement policy. It is wrapped for
// use by many simulated threads: write-back of evicted dirty pages happens
// synchronously on the evicting thread (the baselines' sync paradigm),
// with an in-flight table so concurrent readers never fetch a stale page
// from the device mid-write-back.
//
// The simulation's strict single-step execution means cache operations
// that do not block are naturally atomic; only operations spanning a
// blocking I/O need the in-flight table.
type Cache struct {
	buf       *buffer.Buffer
	io        IO
	writeBack map[storage.PageID][]byte
}

// NewCache creates a cache of capacity pages over io (capacity 0
// disables caching).
func NewCache(capacity int, io IO) *Cache {
	return &Cache{buf: buffer.New(capacity), io: io, writeBack: make(map[storage.PageID][]byte)}
}

// Get returns the cached image of id.
func (c *Cache) Get(id storage.PageID) ([]byte, bool) {
	if data, ok := c.buf.Get(id); ok {
		return data, true
	}
	if data, ok := c.writeBack[id]; ok {
		return data, true
	}
	return nil, false
}

// FillOnRead caches a page read from the device, or one a write-through
// write made durable, writing back any evicted dirty victim synchronously
// on th.
func (c *Cache) FillOnRead(th *simos.Thread, id storage.PageID, data []byte) error {
	victim, ev := c.buf.FillOnRead(id, data)
	if ev {
		return c.flushVictim(th, victim)
	}
	return nil
}

// Write absorbs a dirty page (weak persistence), writing back any evicted
// victim synchronously.
func (c *Cache) Write(th *simos.Thread, id storage.PageID, data []byte) error {
	victim, ev := c.buf.Write(id, data)
	if ev {
		return c.flushVictim(th, victim)
	}
	return nil
}

func (c *Cache) flushVictim(th *simos.Thread, victim buffer.Dirty) error {
	c.writeBack[victim.ID] = victim.Data
	err := c.io.Write(th, uint64(victim.ID), victim.Data)
	if cur, ok := c.writeBack[victim.ID]; ok && &cur[0] == &victim.Data[0] {
		delete(c.writeBack, victim.ID)
	}
	if err == nil {
		c.buf.MarkClean(victim.ID, victim.Epoch)
	}
	return err
}

// Sync flushes every dirty page and issues a device flush.
func (c *Cache) Sync(th *simos.Thread) error {
	for _, d := range c.buf.DirtyPages() {
		if err := c.io.Write(th, uint64(d.ID), d.Data); err != nil {
			return err
		}
		c.buf.MarkClean(d.ID, d.Epoch)
	}
	return c.io.Flush(th)
}

// DirtyCount exposes the number of dirty pages.
func (c *Cache) DirtyCount() int { return c.buf.DirtyCount() }
