// Package disk models the file server's disk in virtual time: a device
// that delivers one 512-byte page per fixed service time ("a disk
// delivering a 512 byte page every 15 milliseconds", §3.1), serialized on
// a single arm.
//
// The disk stores no data — file contents live in the in-memory volume —
// it only accounts for when a requested page becomes available.
package disk

import (
	"sync"
	"time"

	"repro/internal/vtime"
)

// Disk is one simulated disk. The zero value is not usable; construct
// with New.
type Disk struct {
	pageTime time.Duration

	mu       sync.Mutex
	idleAt   vtime.Time // when the arm finishes its current transfer
	fetches  uint64
	busyTime time.Duration
}

// New returns a disk with the given per-page service time.
func New(pageTime time.Duration) *Disk {
	return &Disk{pageTime: pageTime}
}

// Fetch models a page read issued at virtual time `at`; it returns the
// virtual time the page is available. Requests serialize on the arm.
func (d *Disk) Fetch(at vtime.Time) vtime.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := at
	if d.idleAt > start {
		start = d.idleAt
	}
	done := start + d.pageTime
	d.idleAt = done
	d.fetches++
	d.busyTime += d.pageTime
	return done
}

// Stats returns the number of page fetches and total busy time so far.
func (d *Disk) Stats() (fetches uint64, busy time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fetches, d.busyTime
}
