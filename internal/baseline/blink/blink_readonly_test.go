//go:build linux

package blink

import (
	"runtime/debug"
	"syscall"
	"testing"
)

// TestReadersNeverWritePage maps an encoded leaf read-only and runs verify
// and decode over it: a write to the image — even one that puts the bytes
// back — faults, and SetPanicOnFault turns the fault into a panic the
// test reports. decode runs on the cache's image, so it must only read it.
func TestReadersNeverWritePage(t *testing.T) {
	mem, err := syscall.Mmap(-1, 0, syscall.Getpagesize(), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	n := &node{id: 3, leaf: true, keys: []uint64{10, 20, 30}, vals: [][]byte{[]byte("a"), []byte("b"), []byte("c")}}
	copy(mem, n.encode())
	if err := syscall.Mprotect(mem, syscall.PROT_READ); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	page := mem[:pageSize]
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, c := range []struct {
		name string
		call func() bool
	}{
		{"verify", func() bool { return verify(page) }},
		{"decode", func() bool { return len(decode(3, page).keys) == 3 }},
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s wrote into the page it reads: %v", c.name, r)
				}
			}()
			if !c.call() {
				t.Errorf("%s rejected an encoded leaf", c.name)
			}
		}()
	}
}
