// Package nvme models the NVMe interface of §II of the paper: queue pairs
// made of a submission ring and a completion ring, asynchronous submission
// that returns immediately, polled completion via Probe, out-of-order
// completion, bounded internal parallelism, asymmetric read/write service
// times, and per-probe controller interference.
//
// Two backends implement the same Device/QueuePair interface over one
// sparse extent store (blockStore):
//
//   - SimDevice: a deterministic device model on the internal/sim virtual
//     clock. It substitutes for the paper's SPDK-driven Intel NVMe SSD and
//     is calibrated to reproduce the behavioural shapes of the paper's
//     Figure 3 (IOPS vs queue depth, latency vs queue depth and write
//     rate, sensitivity to probe frequency).
//   - RAMDevice: a real-time, memory-backed device polled like one: a
//     command runs on the thread that submits it and its completion waits
//     in the queue pair's ring until that thread probes. It makes the
//     examples and the wall-clock benchmark ordinary runnable programs.
package nvme

import (
	"errors"
	"fmt"
	"time"
)

// Opcode identifies an NVMe command type.
type Opcode uint8

const (
	// OpRead reads Blocks blocks starting at LBA into Buf.
	OpRead Opcode = iota
	// OpWrite writes Blocks blocks from Buf starting at LBA.
	OpWrite
	// OpFlush commits the device write cache; LBA/Buf are ignored.
	OpFlush
)

// String returns the opcode mnemonic.
func (o Opcode) String() string {
	switch o {
	case OpRead:
		return "READ"
	case OpWrite:
		return "WRITE"
	case OpFlush:
		return "FLUSH"
	default:
		return fmt.Sprintf("Opcode(%d)", uint8(o))
	}
}

// Command is one I/O command. The caller keeps ownership of Buf until the
// completion callback fires; for writes the device copies the data at
// submission (like a DMA snapshot), so the buffer may be reused as soon as
// Submit returns.
type Command struct {
	Op     Opcode
	LBA    uint64
	Blocks int
	Buf    []byte
	// Callback runs inside Probe on the polling thread when the command's
	// completion is reaped, mirroring SPDK's completion callbacks.
	Callback func(Completion)
}

// Completion reports the outcome of a command.
type Completion struct {
	Cmd *Command
	Err error
	// Latency is the time from submission to device-side completion
	// (not including the probe detection delay).
	Latency time.Duration
}

// Errors returned by devices. ErrQueueFull, ErrOutOfRange, ErrBadCommand,
// ErrNilBuffer and ErrShortBuffer describe the command; ErrMedia and
// ErrTimeout describe the device (transient command statuses a robust
// caller may retry); the rest describe the queue-pair lifecycle.
var (
	ErrQueueFull   = errors.New("nvme: submission queue full")
	ErrOutOfRange  = errors.New("nvme: LBA out of range")
	ErrBadCommand  = errors.New("nvme: malformed command")
	ErrClosed      = errors.New("nvme: device closed")
	ErrTooManyQP   = errors.New("nvme: queue pair limit reached")
	ErrNilBuffer   = errors.New("nvme: nil buffer for data command")
	ErrShortBuffer = errors.New("nvme: buffer smaller than Blocks*BlockSize")
	ErrQueueFreed  = errors.New("nvme: queue pair freed")
	ErrMedia       = errors.New("nvme: media error")
	ErrTimeout     = errors.New("nvme: command timeout")
)

// Device is a block device exposing the NVMe queue-pair interface.
type Device interface {
	// AllocQueuePair creates a submission/completion queue pair with the
	// given depth (clamped to the device maximum).
	AllocQueuePair(depth int) (QueuePair, error)
	// BlockSize returns the minimal access granularity in bytes (512 for
	// the paper's device).
	BlockSize() int
	// NumBlocks returns the device capacity in blocks.
	NumBlocks() uint64
	// Close releases the device.
	Close() error
}

// QueuePair is an I/O submission queue plus its completion queue.
// A queue pair is owned by one thread at a time; neither Submit nor Probe
// is synchronized, matching NVMe's lock-free per-queue design.
type QueuePair interface {
	// Submit appends cmd to the submission queue and returns immediately.
	// It fails with ErrQueueFull when the ring has no free slot.
	Submit(cmd *Command) error
	// Probe reaps up to max completions (max <= 0 means all available),
	// invoking each command's callback, and returns the number reaped.
	Probe(max int) int
	// Outstanding returns the number of submitted-but-not-reaped commands.
	Outstanding() int
	// Free releases the queue pair.
	Free() error
}

func validate(d Device, cmd *Command) error {
	if cmd == nil {
		return ErrBadCommand
	}
	if cmd.Op == OpFlush {
		return nil
	}
	if cmd.Blocks <= 0 {
		return ErrBadCommand
	}
	if cmd.LBA+uint64(cmd.Blocks) > d.NumBlocks() || cmd.LBA+uint64(cmd.Blocks) < cmd.LBA {
		return ErrOutOfRange
	}
	if cmd.Buf == nil {
		return ErrNilBuffer
	}
	if len(cmd.Buf) < cmd.Blocks*d.BlockSize() {
		return ErrShortBuffer
	}
	return nil
}
