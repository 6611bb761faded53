// Package mailserver demonstrates the extensibility claim of the paper
// (§2.2): a pre-existing name space with externally-imposed syntax —
// computer mail addresses like "cheriton@su-score.ARPA" — integrated into
// the V-System by wrapping it in the name-handling protocol, without
// translating the names into low-level universal identifiers.
//
// Mail addresses are flat, opaque names in the server's single context:
// the '@' and dots inside them mean nothing to the protocol, and the
// server interprets whole addresses its own way, as §5.4 permits.
package mailserver

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/vio"
)

// mailbox is one user's mailbox: its messages as an instance reads them,
// each followed by a newline.
type mailbox struct {
	id      uint32
	address string
	data    []byte
	count   int // messages in data
}

// Server is the mail registry server: a flat context whose names are
// whole addresses, listed in address order.
type Server struct {
	*core.Flat[mailbox]
}

// Start spawns a mail server on host.
func Start(host *kernel.Host) (*Server, error) {
	s := &Server{}
	var err error
	s.Flat, err = core.NewFlat(host, "mail-server", s,
		core.FlatKind[mailbox]{Tag: proto.TagMailbox, Describe: describe, Open: s.open,
			// The directory lists by address, not by age.
			Order: func() []uint32 { return s.ByName() },
			Size:  func(mb *mailbox) int { return len(mb.data) }, Read: read, Write: write})
	if err != nil {
		return nil, err
	}
	if err := s.StartService(kernel.ServiceMail, kernel.ScopeBoth); err != nil {
		return nil, err
	}
	return s, nil
}

// AddMailbox registers an address. Addresses follow the foreign
// convention local-part@domain; the server validates only that shape.
func (s *Server) AddMailbox(address string) error {
	_, err := s.add(address)
	return err
}

func (s *Server) add(address string) (uint32, error) {
	if !ValidAddress(address) {
		return 0, fmt.Errorf("%w: %q is not a mail address", proto.ErrBadArgs, address)
	}
	id := s.NewID()
	address = strings.Clone(address) // an open's address lies in its request
	return id, s.Add(id, address, &mailbox{id: id, address: address})
}

// ValidAddress checks the externally-imposed address syntax.
func ValidAddress(address string) bool {
	at := strings.IndexByte(address, '@')
	return at > 0 && at < len(address)-1 && strings.Count(address, "@") == 1
}

// describe reports a mailbox's size as an open instance of it does: the
// bytes a reader gets, each message's newline included.
func describe(mb *mailbox) proto.Descriptor {
	return proto.Descriptor{
		Tag:          proto.TagMailbox,
		ObjectID:     mb.id,
		Name:         mb.address,
		Size:         uint32(len(mb.data)),
		Perms:        proto.PermRead | proto.PermWrite,
		TypeSpecific: [2]uint32{uint32(mb.count), 0},
	}
}

// open opens a mailbox instance — reads return the concatenated messages
// (separated by newlines), writes deliver a new message — registering the
// address on request.
func (s *Server) open(req *core.Request, res *core.Resolution, mode uint32) *proto.Message {
	var id uint32
	switch {
	case res.Entry == nil && mode&proto.ModeCreate == 0:
		return core.ErrorReplyMsg(proto.ErrNotFound)
	case res.Entry == nil:
		var err error
		if id, err = s.add(res.Last); err != nil {
			return core.ErrorReplyMsg(err)
		}
	default:
		id = res.Entry.Object.ID
	}
	return s.OpenObject(req.Msg, id, res.Last, mode, proto.ModeRead|proto.ModeWrite, nil)
}

func read(_ *kernel.Process, mb *mailbox, off int64, buf []byte) (int, error) {
	return core.ReadBytes(mb.data, off, buf)
}

// write delivers one message per write, regardless of offset.
func write(_ *kernel.Process, mb *mailbox, _ int64, data []byte) (int, error) {
	if err := vio.CheckStored(int64(len(mb.data) + len(data) + 1)); err != nil {
		return 0, err
	}
	mb.data = append(append(mb.data, data...), '\n')
	mb.count++
	return len(data), nil
}
