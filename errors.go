package patree

import (
	"errors"

	"github.com/patree/patree/internal/core"
)

// This file is the package's whole error taxonomy. Every failure an
// operation can report — embedded or over the network — resolves to one
// of the sentinels below (possibly wrapped with context), so callers
// dispatch with errors.Is and never on message text.
//
// Stability contract: for any error returned by a Store implementation
// in this module (a *DB or a network client.Conn), errors.Is against
// these sentinels yields the same answer on both sides of the wire. The
// server maps sentinels to stable protocol status codes and the client
// maps the codes back to the same sentinels; internal/proto carries the
// mapping and a round-trip test pins it.

// ErrClosed is returned by operations on a closed Store: a DB after
// Close, or a network connection the local side closed.
var ErrClosed = errors.New("patree: closed")

// ErrBacklog is returned by TryCommit when the admission pipeline
// cannot accept the whole batch atomically — the device-side pipeline
// is full and the caller should apply backpressure (wait, or shed
// load). Over the network it is the BUSY status answering a try batch:
// the server admitted nothing of it, and the caller may retry. No other
// remote request is refused for room; the server waits instead.
var ErrBacklog = core.ErrBacklog

// ErrDeviceFailed is returned by every operation once the device has
// failed unrecoverably (an I/O error that survived MaxIORetries
// retries). The DB is then in a terminal degraded state: in-flight and
// future operations drain with this error, and Close still shuts the
// working thread down cleanly. Reopening the device runs journal
// recovery, which restores every acknowledged write the device kept.
var ErrDeviceFailed = core.ErrDeviceFailed

// ErrBatchAborted is delivered to operations abandoned before
// completion because the transport carrying them failed — e.g. a
// network connection dropped with requests still in flight. The
// operations' outcomes are unknown: a write may or may not have been
// applied by the server (it is never torn — a cross-shard TryCommit
// batch still applies all-or-nothing server-side), so an idempotent
// retry on a fresh connection is the correct recovery.
var ErrBatchAborted = errors.New("patree: batch aborted")

// ErrValueTooLarge is returned by writes whose value exceeds
// MaxValueSize.
var ErrValueTooLarge = core.ErrValueTooLarge
