// Package kernel simulates the distributed V kernel (§3-4 of the paper):
// processes identified by structured 32-bit pids, synchronous
// Send-Receive-Reply message transactions, message forwarding, MoveTo and
// MoveFrom bulk transfer, the SetPid/GetPid service naming facility, and
// process groups with multicast Send (the §7 group-send extension).
//
// Every process carries a virtual clock; message deliveries stamp arrival
// times computed from the netsim cost model, so experiments read latencies
// off the clocks deterministically. Because the clocks are per process,
// not per goroutine, a process need not own a goroutine: a received
// process loops on Receive in one, a served process (Process.Serve) has
// its loop body run by whoever delivers to it, and no virtual-time result
// can tell the two apart.
package kernel

import (
	"fmt"
	"strconv"

	"repro/internal/netsim"
)

// PID is a V process identifier: a 32-bit value unique within one V
// domain, structured as a 16-bit logical-host field and a 16-bit local
// process identifier (Figure 2). Process identifiers are the only absolute
// names in a V domain (§4.1).
type PID uint32

// NilPID is the zero process identifier, which never names a process.
const NilPID PID = 0

// The top groupHosts logical-host values are reserved for group
// identifiers, so that a group can be addressed by Send exactly like a
// process (§7). A group's number is 24 bits: the low 16 ride the local
// field and the high 8 count the host field down from groupHostField,
// so the first 2¹⁶−1 groups have the pids they had when the host field
// was the one value. Hosts number up from 1 and never get that far.
const (
	groupHostField = 0xFFFF
	groupHosts     = 256
	maxGroups      = groupHosts<<16 - 1
)

// groupPID returns the pid of group number n, 1 ≤ n ≤ maxGroups.
func groupPID(n uint32) PID {
	return MakePID(groupHostField-netsim.HostID(n>>16), uint16(n))
}

// groupNumber is groupPID's inverse, for a pid that IsGroup.
func (p PID) groupNumber() uint32 {
	return uint32(groupHostField-p.Host())<<16 | uint32(p.Local())
}

// MakePID assembles a pid from its logical-host and local subfields.
func MakePID(host netsim.HostID, local uint16) PID {
	return PID(uint32(host)<<16 | uint32(local))
}

// Host extracts the logical-host subfield, which maps to a host address —
// the structuring that makes locating a process efficient (§4.1).
func (p PID) Host() netsim.HostID { return netsim.HostID(p >> 16) }

// Local extracts the local process identifier subfield.
func (p PID) Local() uint16 { return uint16(p) }

// IsGroup reports whether p names a process group rather than a single
// process.
func (p PID) IsGroup() bool { return p.Host() > groupHostField-groupHosts }

// String renders the pid as host.local for diagnostics.
func (p PID) String() string {
	if p == NilPID {
		return "pid(nil)"
	}
	if p.IsGroup() {
		return fmt.Sprintf("group(%d)", p.groupNumber())
	}
	// Appended, not formatted: a retained trace span renders its peer's
	// pid this way (trace.Name), one allocation each.
	var buf [16]byte
	s := append(buf[:0], "pid("...)
	s = strconv.AppendUint(s, uint64(p.Host()), 10)
	s = append(s, '.')
	s = strconv.AppendUint(s, uint64(p.Local()), 10)
	return string(append(s, ')'))
}

// Service is a V service code: programs are written in terms of services,
// with the binding of service to server process occurring at time of use
// via GetPid (§4.2).
type Service uint32

// Standard V-System service codes.
const (
	ServiceStorage Service = iota + 1
	ServiceContextPrefix
	ServiceTerminal
	ServicePrinter
	ServiceInternet
	ServiceExec
	ServiceMail
	ServiceTime
	ServicePipe
	// ServiceNameServer is the baseline centralized name server used only
	// by the §2.2 comparison experiments.
	ServiceNameServer
)

// String names standard services for diagnostics.
func (s Service) String() string {
	switch s {
	case ServiceStorage:
		return "storage"
	case ServiceContextPrefix:
		return "context-prefix"
	case ServiceTerminal:
		return "terminal"
	case ServicePrinter:
		return "printer"
	case ServiceInternet:
		return "internet"
	case ServiceExec:
		return "exec"
	case ServiceMail:
		return "mail"
	case ServiceTime:
		return "time"
	case ServicePipe:
		return "pipe"
	case ServiceNameServer:
		return "name-server"
	default:
		return fmt.Sprintf("service(%d)", uint32(s))
	}
}

// Scope qualifies service registration visibility and GetPid searches
// (§4.2): local to this machine, remote ("public"), or both.
type Scope uint8

const (
	// ScopeLocal restricts a registration to its own host, or a GetPid
	// search to the local kernel table.
	ScopeLocal Scope = iota + 1
	// ScopeRemote makes a registration visible only to other hosts'
	// broadcast queries, or restricts a GetPid search to remote hosts.
	ScopeRemote
	// ScopeBoth makes a registration visible locally and remotely, or
	// lets a GetPid search try the local table first and then broadcast.
	ScopeBoth
)

// String names the scope for diagnostics.
func (s Scope) String() string {
	switch s {
	case ScopeLocal:
		return "local"
	case ScopeRemote:
		return "remote"
	case ScopeBoth:
		return "both"
	default:
		return fmt.Sprintf("scope(%d)", uint8(s))
	}
}
