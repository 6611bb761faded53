// Package termserver implements the V-System virtual graphics terminal
// server (§3, §6): a server providing a small number of transient objects
// — virtual terminals — named by short numeric object instance
// identifiers generated at creation time, with character-string names
// derived from them (§4.3).
//
// It is one of the simple local server processes every workstation runs,
// and one of the context types the single "list directory" command can
// list (§6).
package termserver

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/vio"
)

// CreateName is the distinguished name opened with ModeCreate to
// allocate a new virtual terminal.
const CreateName = "new"

// terminal is one virtual terminal: a screen buffer plus an input queue.
type terminal struct {
	id     uint32
	name   string
	screen []byte
}

// Server is the virtual graphics terminal server: a flat context of
// terminals.
type Server struct {
	*core.Flat[terminal]
}

// Start spawns a terminal server on host.
func Start(host *kernel.Host) (*Server, error) {
	s := &Server{}
	var err error
	s.Flat, err = core.NewFlat(host, "vgt-server", s,
		core.FlatKind[terminal]{Tag: proto.TagTerminal, Describe: describe, Open: s.open,
			Size: func(t *terminal) int { return len(t.screen) }, Read: read, Write: write})
	if err != nil {
		return nil, err
	}
	if err := s.StartService(kernel.ServiceTerminal, kernel.ScopeLocal); err != nil {
		return nil, err
	}
	return s, nil
}

func describe(t *terminal) proto.Descriptor {
	return proto.Descriptor{
		Tag:      proto.TagTerminal,
		ObjectID: t.id,
		Name:     t.name,
		Size:     uint32(len(t.screen)),
		Perms:    proto.PermRead | proto.PermWrite,
	}
}

// open opens a terminal as a V I/O instance: reads return the screen
// contents, writes append to the screen. Opening CreateName with
// ModeCreate allocates a terminal, whose name is derived from the numeric
// identifier the server chose for it (§4.3).
func (s *Server) open(req *core.Request, res *core.Resolution, mode uint32) *proto.Message {
	var id uint32
	name := res.Last
	switch {
	case res.Last == CreateName && res.Entry == nil && mode&proto.ModeCreate != 0:
		id = s.NewID()
		name = fmt.Sprintf("vgt%d", id)
		if err := s.Add(id, name, &terminal{id: id, name: name}); err != nil {
			return core.ErrorReplyMsg(err)
		}
	case res.Entry == nil || res.Entry.Kind != core.EntryObject:
		return core.ErrorReplyMsg(proto.ErrNotFound)
	default:
		id = res.Entry.Object.ID
	}
	return s.OpenObject(req.Msg, id, name, mode, proto.ModeRead|proto.ModeWrite, nil)
}

func read(_ *kernel.Process, t *terminal, off int64, buf []byte) (int, error) {
	return core.ReadBytes(t.screen, off, buf)
}

// write appends to the screen regardless of offset: a terminal is a
// stream sink, not a random-access store.
func write(_ *kernel.Process, t *terminal, _ int64, data []byte) (int, error) {
	if err := vio.CheckStored(int64(len(t.screen) + len(data))); err != nil {
		return 0, err
	}
	t.screen = append(t.screen, data...)
	return len(data), nil
}
