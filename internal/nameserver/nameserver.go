// Package nameserver implements the *baseline* the paper argues against
// (§2.1-2.2): a logically centralized name server that maps full
// character-string names to low-level globally-unique identifiers plus
// the pid of the server holding the object. It exists so the experiments
// can compare the centralized and distributed models on efficiency,
// consistency and reliability.
//
// It is deliberately NOT a CSNH server: names are opaque keys in one flat
// table, objects are reached by UID, and keeping the table consistent
// with the objects is the client's problem — exactly the failure mode §2.2
// describes.
package nameserver

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/kernel"
	"repro/internal/proto"
)

// Binding is one name-server table entry: a global name bound to a
// (server-pid, low-level-uid) pair.
type Binding struct {
	Server kernel.PID
	UID    uint32
}

// Server is the centralized name server.
type Server struct {
	proc *kernel.Process

	mu    sync.Mutex
	table map[string]Binding
}

// Start spawns a name server on host and registers it as the name
// service.
func Start(host *kernel.Host) (*Server, error) {
	proc, err := host.NewProcess("name-server")
	if err != nil {
		return nil, err
	}
	s := &Server{proc: proc, table: make(map[string]Binding)}
	model := proc.Kernel().Model()
	proc.Serve(func(msg *proto.Message, from kernel.PID) {
		proc.ChargeCompute(model.ServerDispatchCost + model.ContextLookupCost)
		_ = proc.Reply(s.serve(msg), from)
	})
	if err := proc.SetPid(kernel.ServiceNameServer, proc.PID(), kernel.ScopeBoth); err != nil {
		return nil, err
	}
	return s, nil
}

// PID returns the server's process identifier.
func (s *Server) PID() kernel.PID { return s.proc.PID() }

func (s *Server) serve(msg *proto.Message) *proto.Message {
	switch msg.Op {
	case proto.OpNSRegister:
		name := string(msg.Segment)
		if name == "" {
			return proto.NewReply(proto.ReplyBadArgs)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, dup := s.table[name]; dup {
			return proto.NewReply(proto.ReplyDuplicateName)
		}
		s.table[name] = Binding{Server: kernel.PID(msg.F[4]), UID: msg.F[3]}
		return proto.NewReply(proto.ReplyOK)

	case proto.OpNSLookup:
		s.mu.Lock()
		b, ok := s.table[string(msg.Segment)]
		s.mu.Unlock()
		if !ok {
			return proto.NewReply(proto.ReplyNotFound)
		}
		reply := proto.NewReply(proto.ReplyOK)
		reply.F[3] = b.UID
		reply.F[4] = uint32(b.Server)
		return reply

	case proto.OpNSUnregister:
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, ok := s.table[string(msg.Segment)]; !ok {
			return proto.NewReply(proto.ReplyNotFound)
		}
		delete(s.table, string(msg.Segment))
		return proto.NewReply(proto.ReplyOK)

	case proto.OpNSList:
		s.mu.Lock()
		names := make([]string, 0, len(s.table))
		for n := range s.table {
			names = append(names, n)
		}
		sort.Strings(names)
		records := make([]proto.Descriptor, 0, len(names))
		for _, n := range names {
			b := s.table[n]
			records = append(records, proto.Descriptor{
				Tag:          proto.TagServiceBinding,
				Name:         n,
				ObjectID:     b.UID,
				TypeSpecific: [2]uint32{uint32(b.Server), 0},
			})
		}
		s.mu.Unlock()
		reply := proto.NewReply(proto.ReplyOK)
		reply.Segment = proto.EncodeDescriptors(records)
		return reply

	default:
		return proto.NewReply(proto.ReplyIllegalRequest)
	}
}

// Client is the baseline client library: every reference to a named
// object goes through the name server first (one extra server
// interaction per reference, §2.2), then to the owning server by UID.
type Client struct {
	proc *kernel.Process
	ns   kernel.PID
}

// NewClient builds a baseline client talking to the given name server.
func NewClient(proc *kernel.Process, ns kernel.PID) *Client {
	return &Client{proc: proc, ns: ns}
}

func (c *Client) transact(dst kernel.PID, req *proto.Message) (*proto.Message, error) {
	c.proc.ChargeCompute(c.proc.Kernel().Model().ClientStubCost)
	reply, err := c.proc.Send(req, dst)
	if err != nil {
		return nil, err
	}
	if err := proto.ReplyError(reply.Op); err != nil {
		return nil, err
	}
	return reply, nil
}

// Register binds a global name to (server, uid).
func (c *Client) Register(name string, server kernel.PID, uid uint32) error {
	req := &proto.Message{Op: proto.OpNSRegister, Segment: []byte(name)}
	req.F[3] = uid
	req.F[4] = uint32(server)
	_, err := c.transact(c.ns, req)
	return err
}

// Lookup resolves a global name.
func (c *Client) Lookup(name string) (Binding, error) {
	req := &proto.Message{Op: proto.OpNSLookup, Segment: []byte(name)}
	reply, err := c.transact(c.ns, req)
	if err != nil {
		return Binding{}, fmt.Errorf("%q: %w", name, err)
	}
	return Binding{UID: reply.F[3], Server: kernel.PID(reply.F[4])}, nil
}

// Unregister removes a global name.
func (c *Client) Unregister(name string) error {
	req := &proto.Message{Op: proto.OpNSUnregister, Segment: []byte(name)}
	_, err := c.transact(c.ns, req)
	return err
}

// List returns the name server's whole table.
func (c *Client) List() ([]proto.Descriptor, error) {
	reply, err := c.transact(c.ns, &proto.Message{Op: proto.OpNSList})
	if err != nil {
		return nil, err
	}
	return proto.DecodeDescriptors(reply.Segment)
}

// Open opens a named object the centralized way: name-server lookup, then
// open-by-UID at the owning server.
func (c *Client) Open(name string, mode uint32) (proto.InstanceInfo, kernel.PID, error) {
	b, err := c.Lookup(name)
	if err != nil {
		return proto.InstanceInfo{}, kernel.NilPID, err
	}
	req := &proto.Message{Op: proto.OpOpenByUID}
	proto.SetOpenMode(req, mode)
	req.F[3] = b.UID
	reply, err := c.transact(b.Server, req)
	if err != nil {
		return proto.InstanceInfo{}, kernel.NilPID, fmt.Errorf("%q: %w", name, err)
	}
	return proto.GetInstanceInfo(reply), b.Server, nil
}

// Remove deletes a named object the centralized way: look the name up,
// delete the object at its server, then unregister the name. The
// non-atomic two-server window is inherent to the model (§2.2);
// crashBetween injects the §2.2 failure — the client dies after the
// object is destroyed but before the name server learns.
func (c *Client) Remove(name string, crashBetween bool) error {
	b, err := c.Lookup(name)
	if err != nil {
		return err
	}
	req := &proto.Message{Op: proto.OpRemoveByUID}
	req.F[3] = b.UID
	if _, err := c.transact(b.Server, req); err != nil {
		return fmt.Errorf("%q: %w", name, err)
	}
	if crashBetween {
		// The deleting client crashes here: the object is gone but the
		// name server still advertises its name.
		return nil
	}
	return c.Unregister(name)
}

// Verify checks every table entry against the owning server, returning
// the names whose objects no longer exist (dangling) — the inconsistency
// the distributed model avoids by construction.
func (c *Client) Verify() (dangling []string, err error) {
	entries, err := c.List()
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		req := &proto.Message{Op: proto.OpOpenByUID}
		proto.SetOpenMode(req, proto.ModeRead)
		req.F[3] = e.ObjectID
		server := kernel.PID(e.TypeSpecific[0])
		reply, err := c.transact(server, req)
		if err != nil {
			dangling = append(dangling, e.Name)
			continue
		}
		// Close the probe instance.
		rel := &proto.Message{Op: proto.OpReleaseInstance}
		rel.F[0] = reply.F[0]
		if _, err := c.transact(server, rel); err != nil {
			return dangling, err
		}
	}
	return dangling, nil
}
