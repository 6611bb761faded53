package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/vio"
)

// thing is the model test's object type; thingServer the smallest server
// on Flat: open-or-create by name, nothing else of its own.
type thing struct {
	id   uint32
	name string
}

type thingServer struct {
	*Flat[thing]
}

// count returns the number of objects in f's table.
func count[T any](f *Flat[T]) int {
	f.Mu.Lock()
	defer f.Mu.Unlock()
	return len(f.objs)
}

func startThingServer(t *testing.T, h *kernel.Host, byName bool) *thingServer {
	t.Helper()
	s := &thingServer{}
	kind := FlatKind[thing]{
		Tag: proto.TagPipe,
		Describe: func(th *thing) proto.Descriptor {
			return proto.Descriptor{Tag: proto.TagPipe, ObjectID: th.id, Name: th.name}
		},
		Open: s.open,
		Size: func(*thing) int { return 0 },
	}
	if byName {
		kind.Order = func() []uint32 { return s.ByName() }
	}
	var err error
	if s.Flat, err = NewFlat(h, "things", s, kind); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Proc().Destroy)
	return s
}

func (s *thingServer) open(req *Request, res *Resolution, mode uint32) *proto.Message {
	var id uint32
	switch {
	case res.Entry == nil && mode&proto.ModeCreate == 0:
		return ErrorReplyMsg(proto.ErrNotFound)
	case res.Entry == nil:
		id = s.NewID()
		name := strings.Clone(res.Last) // res.Last lies in the request
		if err := s.Add(id, name, &thing{id: id, name: name}); err != nil {
			return ErrorReplyMsg(err)
		}
	default:
		id = res.Entry.Object.ID
	}
	return s.OpenObject(req.Msg, id, res.Last, mode, proto.ModeRead, nil)
}

// thingClient drives a thingServer over the wire.
type thingClient struct {
	proc *kernel.Process
	srv  kernel.PID
}

func (c thingClient) send(op proto.Code, name string, mode uint32) (*proto.Message, error) {
	req := &proto.Message{Op: op}
	proto.SetCSName(req, uint32(CtxDefault), name)
	proto.SetOpenMode(req, mode)
	return Transact(c.proc, c.srv, req)
}

// open opens (or creates) name and releases the instance again.
func (c thingClient) open(name string, mode uint32) error {
	reply, err := c.send(proto.OpCreateInstance, name, mode)
	if err != nil {
		return err
	}
	return new(vio.File).Init(c.proc, c.srv, proto.GetInstanceInfo(reply)).Close()
}

func (c thingClient) query(name string) (proto.Descriptor, error) {
	reply, err := c.send(proto.OpQueryObject, name, 0)
	if err != nil {
		return proto.Descriptor{}, err
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	return d, err
}

func (c thingClient) list() ([]proto.Descriptor, error) {
	reply, err := c.send(proto.OpCreateInstance, "", proto.ModeRead|proto.ModeDirectory)
	if err != nil {
		return nil, err
	}
	f := new(vio.File).Init(c.proc, c.srv, proto.GetInstanceInfo(reply))
	defer f.Close()
	raw, err := f.ReadAll()
	if err != nil {
		return nil, err
	}
	return proto.DecodeDescriptors(raw)
}

// flatModel is the shared table as a map: name → id, and the last id
// given out.
type flatModel struct {
	ids  map[string]uint32
	next uint32
}

// listing is the model's directory in the declared order.
func (m *flatModel) listing(byName bool) []string {
	names := make([]string, 0, len(m.ids))
	for n := range m.ids {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if byName {
			return names[i] < names[j]
		}
		return m.ids[names[i]] < m.ids[names[j]]
	})
	return names
}

// step applies one random operation to the server and to the model and
// compares the answers. pool is the client's name space; exact is false
// when other clients share the server, so an id can only be checked to
// be new, not to be the next one.
func (m *flatModel) step(rng *rand.Rand, s *thingServer, c thingClient, pool []string, byName, exact bool) error {
	name := pool[rng.Intn(len(pool))]
	id, bound := m.ids[name]
	switch op := rng.Intn(6); op {
	case 0: // open with create: a new id the first time, the same object after
		if err := c.open(name, proto.ModeRead|proto.ModeCreate); err != nil {
			return fmt.Errorf("create %q: %w", name, err)
		}
		if bound {
			break
		}
		d, err := c.query(name)
		if err != nil {
			return fmt.Errorf("query created %q: %w", name, err)
		}
		if d.ObjectID <= m.next || (exact && d.ObjectID != m.next+1) {
			return fmt.Errorf("created %q with id %d after %d: ids are never reused", name, d.ObjectID, m.next)
		}
		m.ids[name], m.next = d.ObjectID, d.ObjectID
	case 1: // open without create
		if err := c.open(name, proto.ModeRead); bound != (err == nil) || (err != nil && !errors.Is(err, proto.ErrNotFound)) {
			return fmt.Errorf("open %q (bound %v): %v", name, bound, err)
		}
	case 2: // query
		d, err := c.query(name)
		if bound != (err == nil) || (err != nil && !errors.Is(err, proto.ErrNotFound)) {
			return fmt.Errorf("query %q (bound %v): %v", name, bound, err)
		}
		if bound && (d.ObjectID != id || d.Name != name) {
			return fmt.Errorf("query %q = %+v, want id %d", name, d, id)
		}
	case 3: // remove
		if _, err := c.send(proto.OpRemoveObject, name, 0); bound != (err == nil) || (err != nil && !errors.Is(err, proto.ErrNotFound)) {
			return fmt.Errorf("remove %q (bound %v): %v", name, bound, err)
		}
		delete(m.ids, name)
	case 4: // a refused bind uses up an id and leaves no object
		if !bound || !exact {
			break
		}
		before := count(s.Flat)
		dup := s.NewID()
		if err := s.Add(dup, name, &thing{id: dup, name: name}); !errors.Is(err, proto.ErrDuplicateName) {
			return fmt.Errorf("second bind of %q: %v", name, err)
		}
		if count(s.Flat) != before {
			return fmt.Errorf("refused bind of %q left an object: %d → %d", name, before, count(s.Flat))
		}
		m.next = dup
	case 5: // the directory is the model, in the declared order
		records, err := c.list()
		if err != nil {
			return fmt.Errorf("list: %w", err)
		}
		mine := records[:0]
		for _, d := range records {
			if _, own := m.ids[d.Name]; own || exact {
				mine = append(mine, d)
			}
		}
		want := m.listing(byName)
		if len(mine) != len(want) {
			return fmt.Errorf("listing %+v, want %v", mine, want)
		}
		for i, n := range want {
			if mine[i].Name != n || mine[i].ObjectID != m.ids[n] {
				return fmt.Errorf("listing[%d] = %+v, want %q id %d", i, mine[i], n, m.ids[n])
			}
		}
	}
	return nil
}

// TestFlatMatchesModel runs seeded random create/open/list/query/remove
// sequences against the map model, in both listing orders.
func TestFlatMatchesModel(t *testing.T) {
	pool := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, byName := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			k := newDomain()
			s := startThingServer(t, k.NewHost("srv"), byName)
			c := thingClient{proc: newClientProc(t, k.NewHost("ws")), srv: s.PID()}
			m := &flatModel{ids: make(map[string]uint32)}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				if err := m.step(rng, s, c, pool, byName, true); err != nil {
					t.Fatalf("byName=%v seed=%d step %d: %v", byName, seed, i, err)
				}
			}
			if count(s.Flat) != len(m.ids) {
				t.Fatalf("table holds %d objects, model %d", count(s.Flat), len(m.ids))
			}
		}
	}
}

// TestFlatTeamConcurrentClients is the race leg: four clients, each with
// its own names and its own model, against one flat server — a team of
// one, whose requests serialize on its process. Ids are shared, so each
// client checks only that its ids are new and its own names list in
// order.
func TestFlatTeamConcurrentClients(t *testing.T) {
	k := newDomain()
	s := startThingServer(t, k.NewHost("srv"), false)
	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	total := make([]int, clients)
	for i := 0; i < clients; i++ {
		c := thingClient{proc: newClientProc(t, k.NewHost(fmt.Sprintf("ws%d", i))), srv: s.PID()}
		pool := []string{fmt.Sprintf("c%d-x", i), fmt.Sprintf("c%d-y", i), fmt.Sprintf("c%d-z", i)}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := &flatModel{ids: make(map[string]uint32)}
			rng := rand.New(rand.NewSource(int64(i) + 1))
			for n := 0; n < 200 && errs[i] == nil; n++ {
				errs[i] = m.step(rng, s, c, pool, false, false)
			}
			total[i] = len(m.ids)
		}(i)
	}
	wg.Wait()
	want := 0
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
		want += total[i]
	}
	if count(s.Flat) != want {
		t.Fatalf("table holds %d objects, the models %d", count(s.Flat), want)
	}
}

// TestAnswerDescriptorOverlappingName: a record whose name is a view of
// the very request it answers (proto.CSName) — the overlapping write the
// answer would otherwise make over the name's bytes — encodes intact,
// whether the name lies at the front of the segment or further in, and
// the answer still lands in the request.
func TestAnswerDescriptorOverlappingName(t *testing.T) {
	for _, name := range []string{"users/mann/naming.mss", "[storage]users/mann/naming.mss"} {
		msg := &proto.Message{Op: proto.OpQueryObject}
		proto.SetCSName(msg, 0, name)
		view, _, _ := proto.CSName(msg)
		last := view[strings.LastIndexByte(view, '/')+1:]
		owner := view[:5]
		reply := AnswerDescriptor(msg, proto.Descriptor{Tag: proto.TagFile, ObjectID: 7, Name: last, Owner: owner})
		if reply != msg || reply.Op != proto.ReplyOK {
			t.Fatalf("%q: reply %+v, not in its request", name, reply)
		}
		d, _, err := proto.DecodeDescriptor(reply.Segment)
		if err != nil || d.Name != "naming.mss" || d.Owner != name[:5] || d.ObjectID != 7 {
			t.Errorf("%q: decoded %+v, %v", name, d, err)
		}
	}
}
