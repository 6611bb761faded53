// Package vtime provides virtual clocks and the calibrated cost model used
// by the simulated V-System substrate.
//
// Every simulated process carries a Clock. Messages carry virtual
// timestamps: a message sent at virtual time t over a hop with latency d
// arrives at t+d, and the receiver's clock advances to at least the arrival
// time. Processing steps charge additional virtual time to the local clock.
// For the sequential request-response chains the paper's experiments
// measure, this timestamp-propagation scheme yields exact, deterministic
// virtual latencies independent of Go scheduling.
//
// The cost model constants are calibrated to the hardware the paper
// measured (10 MHz MC68000 SUN workstations on a 3 Mbit Ethernet) so that
// the simulated primitives land on the paper's §3.1 figures; see DESIGN.md
// §6 and EXPERIMENTS.md for the calibration derivation.
package vtime

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Time is a virtual timestamp: the duration since the simulation booted.
type Time = time.Duration

// Clock is a monotonic virtual clock owned by one simulated process.
// The zero value is a clock at virtual time zero, ready to use.
//
// The clock is lock-free: a process reads and advances its own clock on
// every IPC primitive, so the hot path must not take a mutex. Advance
// uses a single atomic add (the owner is the only advancer); Observe runs
// a compare-and-swap max loop so concurrent observers can never move the
// clock backwards.
type Clock struct {
	now atomic.Int64
}

// Now returns the current virtual time.
func (c *Clock) Now() Time {
	return Time(c.now.Load())
}

// Advance moves the clock forward by d and returns the new time.
// Advancing by a negative duration is a no-op.
func (c *Clock) Advance(d time.Duration) Time {
	if d <= 0 {
		return Time(c.now.Load())
	}
	return Time(c.now.Add(int64(d)))
}

// Observe moves the clock forward to t if t is later than the current
// time, and returns the resulting time. It is used when a message stamped
// with arrival time t is delivered to this clock's owner.
func (c *Clock) Observe(t Time) Time {
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return Time(cur)
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return t
		}
	}
}

// CostModel holds the calibrated virtual-time costs of the simulated
// substrate. All durations are virtual time.
type CostModel struct {
	// Network (3 Mbit Ethernet, per DESIGN.md §6).

	// WireByteTime is the time one byte occupies the wire, including
	// encoding overhead (8 bits at 3 Mbit/s plus framing slack).
	WireByteTime time.Duration
	// FrameOverheadBytes is added to every frame for preamble, Ethernet
	// header and CRC.
	FrameOverheadBytes int
	// MinFrameBytes is the minimum Ethernet frame size.
	MinFrameBytes int
	// RemoteDriverFloor is the unavoidable per-packet cost of pushing a
	// frame through the network interface on both hosts combined — the
	// "maximum speed at which a workstation can write packets" floor the
	// paper compares program loading against.
	RemoteDriverFloor time.Duration
	// RemoteProtocolExtra is the additional per-packet kernel IPC protocol
	// cost (address mapping, transaction bookkeeping, timers) beyond the
	// raw driver floor.
	RemoteProtocolExtra time.Duration
	// MaxDataPerPacket bounds the data bytes carried by one packet of a
	// MoveTo/MoveFrom bulk transfer.
	MaxDataPerPacket int

	// Local IPC.

	// LocalHopFixed is the fixed kernel cost of delivering a message
	// between two processes on the same host (one direction).
	LocalHopFixed time.Duration
	// LocalByteTime is the per-byte copy cost of a local delivery.
	LocalByteTime time.Duration

	// Processing.

	// ClientStubCost covers building a request message and processing the
	// reply in the client run-time stubs.
	ClientStubCost time.Duration
	// ServerDispatchCost covers receiving a request and dispatching on its
	// operation code in a server main loop.
	ServerDispatchCost time.Duration
	// NameParseByteCost is charged per byte of a character-string name
	// scanned by a server.
	NameParseByteCost time.Duration
	// ContextLookupCost is charged per component looked up in a context.
	ContextLookupCost time.Duration
	// PrefixRewriteCost is the context prefix server's per-request cost
	// beyond parsing and lookup: re-validating the standard CSname fields,
	// scanning its prefix table, rewriting the message, and setting up the
	// forward. Calibrated to the paper's measured ≈3.9 ms prefix overhead
	// on the 10 MHz MC68000 (§6).
	PrefixRewriteCost time.Duration
	// DescriptorFabricateCost is charged per object-description record a
	// server fabricates on demand (§5.6).
	DescriptorFabricateCost time.Duration
	// GetPidLocalCost is a local kernel service-table lookup.
	GetPidLocalCost time.Duration

	// Storage.

	// DiskPageTime is the service time for one page from the simulated
	// disk ("a disk delivering a 512 byte page every 15 milliseconds").
	DiskPageTime time.Duration
	// DiskPageSize is the disk page size in bytes.
	DiskPageSize int

	// Fault handling.

	// RetransmitTimeout is the kernel packet retransmission interval used
	// when the network drops a packet.
	RetransmitTimeout time.Duration
}

// DefaultModel returns the cost model calibrated to the paper's testbed.
// See DESIGN.md §6 for the derivation of each constant.
func DefaultModel() *CostModel {
	return &CostModel{
		WireByteTime:        2830 * time.Nanosecond, // ≈3 Mbit/s with framing slack
		FrameOverheadBytes:  26,
		MinFrameBytes:       64,
		RemoteDriverFloor:   800 * time.Microsecond,
		RemoteProtocolExtra: 300 * time.Microsecond,
		MaxDataPerPacket:    512,

		LocalHopFixed: 350 * time.Microsecond,
		LocalByteTime: 150 * time.Nanosecond,

		ClientStubCost:          120 * time.Microsecond,
		ServerDispatchCost:      80 * time.Microsecond,
		NameParseByteCost:       1500 * time.Nanosecond,
		ContextLookupCost:       130 * time.Microsecond,
		PrefixRewriteCost:       3500 * time.Microsecond,
		DescriptorFabricateCost: 150 * time.Microsecond,
		GetPidLocalCost:         50 * time.Microsecond,

		DiskPageTime: 15 * time.Millisecond,
		DiskPageSize: 512,

		RetransmitTimeout: 100 * time.Millisecond,
	}
}

// Model10Mbit returns the cost model for the testbed's 10 Mbit Ethernet
// segments (§3 mentions both 3 and 10 Mbit). Only the wire rate changes:
// the per-packet kernel and driver costs are CPU-bound on the 10 MHz
// workstations, which is why the paper's transaction times were dominated
// by processing, not wire time.
func Model10Mbit() *CostModel {
	m := DefaultModel()
	m.WireByteTime = 850 * time.Nanosecond // ≈10 Mbit/s with framing slack
	return m
}

// frameBytes returns the on-wire size of a frame carrying n payload bytes.
func (m *CostModel) frameBytes(n int) int {
	b := n + m.FrameOverheadBytes
	if b < m.MinFrameBytes {
		b = m.MinFrameBytes
	}
	return b
}

// WireTime returns the wire occupancy of a single frame carrying n payload
// bytes.
func (m *CostModel) WireTime(n int) time.Duration {
	return time.Duration(m.frameBytes(n)) * m.WireByteTime
}

// RemoteHop returns the one-way latency of a single message of n payload
// bytes between two hosts: per-packet fixed costs plus wire time. Messages
// larger than MaxDataPerPacket are charged as multiple packets.
func (m *CostModel) RemoteHop(n int) time.Duration {
	perPacketFixed := m.RemoteDriverFloor + m.RemoteProtocolExtra
	if n <= m.MaxDataPerPacket {
		return perPacketFixed + m.WireTime(n)
	}
	var d time.Duration
	for n > 0 {
		chunk := n
		if chunk > m.MaxDataPerPacket {
			chunk = m.MaxDataPerPacket
		}
		d += perPacketFixed + m.WireTime(chunk)
		n -= chunk
	}
	return d
}

// RemoteHopFloor is the one-way latency of the same transfer at the
// driver-floor rate, with no IPC protocol overhead — the reference rate
// the paper compares bulk transfers against.
func (m *CostModel) RemoteHopFloor(n int) time.Duration {
	var d time.Duration
	for {
		chunk := n
		if chunk > m.MaxDataPerPacket {
			chunk = m.MaxDataPerPacket
		}
		d += m.RemoteDriverFloor + m.WireTime(chunk)
		n -= chunk
		if n <= 0 {
			return d
		}
	}
}

// MinRemoteDelay is the smallest possible cross-host one-way latency
// under this model: the per-packet driver floor and protocol cost plus
// the wire occupancy of a minimum-size frame. No message between
// distinct hosts can arrive sooner, which makes it the conservative
// lookahead bound the sharded execution engine synchronizes on
// (PROTOCOL.md §12): a lane known to be quiet until virtual time T
// cannot affect any other host before T + MinRemoteDelay.
func (m *CostModel) MinRemoteDelay() time.Duration {
	return m.RemoteDriverFloor + m.RemoteProtocolExtra + m.WireTime(0)
}

// LocalHop returns the one-way latency of delivering a message of n bytes
// between two processes on the same host.
func (m *CostModel) LocalHop(n int) time.Duration {
	return m.LocalHopFixed + time.Duration(n)*m.LocalByteTime
}

// NameParse returns the cost of scanning n bytes of a CSname.
func (m *CostModel) NameParse(n int) time.Duration {
	return time.Duration(n) * m.NameParseByteCost
}

// Milliseconds renders a virtual duration as fractional milliseconds, the
// unit the paper reports.
func Milliseconds(d time.Duration) string {
	return fmt.Sprintf("%.2f ms", float64(d)/float64(time.Millisecond))
}
