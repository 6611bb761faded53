package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/kernel"
	"repro/internal/popgen"
	"repro/internal/proto"
	"repro/internal/rig"
)

// paper_fileio shape: the paper's own two-workstation rig, a seeded file
// tree spread over both file servers, and four closed-loop programs. Sizes
// are means: the seed draws each directory's entry count, each file's
// length, each write's length and each iteration's think time around them,
// so the simulated latency distribution is the seed's, not one constant
// per operation kind.
const (
	fileioDirs           = 200
	fileioFilesPerDir    = 100  // mean; 80..120 per directory
	fileioReadBytes      = 4096 // mean; 2..6 KB per file
	fileioWriteBytes     = 1024 // mean; 0.5..1.5 KB per write
	fileioMaxThink       = 20 * time.Millisecond
	fileioClientsPerWS   = 2
	fileioItersPerClient = 15_000 // x 4 clients = 6x10^4 ops per repetition
	fileioScratchSlots   = 16
	fileioOpKinds        = 4
)

// around draws uniformly from [mean-spread, mean+spread].
func around(r *popgen.Rand, mean, spread int) int { return mean - spread + r.Intn(2*spread+1) }

// fileioPlan is the seed-derived input of one process: which directory and
// file every iteration of every client touches.
type fileioPlan struct {
	dirs, iters int
	// size[d][f] is the length of file f of directory d.
	size [][]int
	// pick[c][i] packs iteration i's directory and file index; think and
	// writeLen are its think time and, on write iterations, write length.
	pick     [][]uint32
	think    [][]time.Duration
	writeLen [][]int
	// block is the seed's content pattern; a file's bytes are a prefix of
	// this block with its identity stamped over the first 8 bytes.
	block []byte
	seed  uint64
	// dirNames[d] and fileNames[d][f] are the [prefix]-names, built once so
	// the timed loop formats nothing.
	dirNames  []string
	fileNames [][]string
}

func newFileioPlan(seed uint64, div int) *fileioPlan {
	p := &fileioPlan{dirs: fileioDirs, iters: fileioItersPerClient, seed: seed}
	if div > 1 {
		p.dirs = max(p.dirs/div, 2)
		p.iters = max(p.iters/div, 2*fileioOpKinds)
	}
	r := popgen.NewRand(mix(seed, 400))
	p.block = make([]byte, fileioReadBytes*3/2)
	for i := 0; i < len(p.block); i += 8 {
		binary.LittleEndian.PutUint64(p.block[i:], r.Uint64())
	}
	for d := 0; d < p.dirs; d++ {
		// Directories alternate between the file servers: even ones live
		// on fs1 behind [storage], odd ones on fs2 behind [storage2].
		dir := fmt.Sprintf("[storage]bench/d%03d", d)
		if d%2 == 1 {
			dir = fmt.Sprintf("[storage2]bench/d%03d", d)
		}
		files := make([]string, around(r, fileioFilesPerDir, fileioFilesPerDir/5))
		sizes := make([]int, len(files))
		for f := range files {
			files[f] = fmt.Sprintf("%s/f%03d", dir, f)
			sizes[f] = around(r, fileioReadBytes, fileioReadBytes/2)
		}
		p.dirNames = append(p.dirNames, dir)
		p.fileNames = append(p.fileNames, files)
		p.size = append(p.size, sizes)
	}
	for c := 0; c < 2*fileioClientsPerWS; c++ {
		rc := popgen.NewRand(mix(seed, 401+uint64(c)))
		pick := make([]uint32, p.iters)
		think := make([]time.Duration, p.iters)
		writeLen := make([]int, p.iters)
		for i := range pick {
			d := rc.Intn(p.dirs)
			pick[i] = uint32(d)<<16 | uint32(rc.Intn(len(p.fileNames[d])))
			think[i] = time.Duration(rc.Intn(int(fileioMaxThink)))
			writeLen[i] = around(rc, fileioWriteBytes, fileioWriteBytes/2)
		}
		p.pick = append(p.pick, pick)
		p.think = append(p.think, think)
		p.writeLen = append(p.writeLen, writeLen)
	}
	return p
}

// stamped returns the first n bytes of the content block with id stamped
// over its first 8 bytes.
func (p *fileioPlan) stamped(n int, id uint64) []byte {
	b := append([]byte(nil), p.block[:n]...)
	binary.LittleEndian.PutUint64(b, id)
	return b
}

// matches reports whether data is stamped(len(data), id), without building
// the expected slice.
func (p *fileioPlan) matches(data []byte, n int, id uint64) bool {
	return len(data) == n && binary.LittleEndian.Uint64(data) == id && bytes.Equal(data[8:], p.block[8:n])
}

func fileID(d, f int) uint64 { return uint64(d)<<16 | uint64(f) }

// written identifies what a client last wrote to a scratch file.
type written struct {
	id uint64
	n  int
}

// build boots the rig and seeds the file tree through a client session
// (the set-up a user of the system would perform), then installs the four
// closed-loop programs.
func (p *fileioPlan) build() (*instance, error) {
	cfg := rig.DefaultConfig()
	cfg.Seed = int64(mix(p.seed, 2) >> 1)
	r, err := rig.New(cfg)
	if err != nil {
		return nil, err
	}
	inst := &instance{drive: rig.RunWorkload, hosts: []*kernel.Host{r.FS1Host, r.FS2Host, r.ServicesHost}}
	for _, ws := range r.WS {
		inst.hosts = append(inst.hosts, ws.Host)
	}
	seeder, err := r.NewSession(r.WS[0])
	if err != nil {
		return nil, err
	}
	for _, root := range []string{"[storage]bench", "[storage2]bench", "[storage]bench/scratch"} {
		if err := seeder.MakeContext(root); err != nil {
			return nil, fmt.Errorf("seed %s: %w", root, err)
		}
	}
	for d := 0; d < p.dirs; d++ {
		if err := seeder.MakeContext(p.dirNames[d]); err != nil {
			return nil, fmt.Errorf("seed %s: %w", p.dirNames[d], err)
		}
		for f, size := range p.size[d] {
			if err := seeder.WriteFile(p.fileNames[d][f], p.stamped(size, fileID(d, f))); err != nil {
				return nil, fmt.Errorf("seed %s: %w", p.fileNames[d][f], err)
			}
		}
	}

	scratch := make([][]string, len(p.pick))
	for c := range scratch {
		for slot := 0; slot < fileioScratchSlots; slot++ {
			scratch[c] = append(scratch[c], fmt.Sprintf("[storage]bench/scratch/c%d-%02d", c, slot))
		}
	}
	// lastWrite[c][slot] is the id and length of the last content client c
	// wrote to its scratch slot, for the read-back check after the run.
	lastWrite := make([][]written, len(p.pick))
	var sessions []*client.Session
	for c, pick := range p.pick {
		c, pick := c, pick
		sess, err := r.NewSession(r.WS[c/fileioClientsPerWS])
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, sess)
		lat := make([]time.Duration, len(pick))
		inst.lat = append(inst.lat, lat)
		lastWrite[c] = make([]written, fileioScratchSlots)
		inst.clients = append(inst.clients, &rig.WorkloadClient{
			Session:  sess,
			Requests: len(pick),
			Op: func(s *client.Session, i int) error {
				// The program computes between its I/O calls.
				s.Proc().ChargeCompute(p.think[c][i])
				t0 := s.Proc().Now()
				err := p.op(s, c, i, pick[i], scratch[c], lastWrite[c])
				lat[i] = s.Proc().Now() - t0
				return err
			},
		})
	}
	inst.verify = func() int {
		bad := 0
		for c, slots := range lastWrite {
			for slot, w := range slots {
				if w.id == 0 {
					continue
				}
				data, err := sessions[c].ReadFile(scratch[c][slot])
				if err != nil || !p.matches(data, w.n, w.id) {
					bad++
				}
			}
		}
		return bad
	}
	inst.layers = layers{kernel: r.Kernel, net: r.Net, sessions: sessions, registry: r.Metrics}
	for _, ws := range r.WS {
		inst.layers.prefixes = append(inst.layers.prefixes, ws.Prefix)
	}
	return inst, nil
}

// op is one iteration of the fixed mix: Query, Open+read (4 KB mean),
// WriteFile (1 KB mean), List a (100-entry mean) directory, all by
// [prefix]-names.
func (p *fileioPlan) op(s *client.Session, c, i int, pick uint32, scratch []string, lastWrite []written) error {
	d, f := int(pick>>16), int(pick&0xffff)
	switch i % fileioOpKinds {
	case 0:
		desc, err := s.Query(p.fileNames[d][f])
		if err != nil {
			return err
		}
		if desc.Tag != proto.TagFile || int(desc.Size) != p.size[d][f] {
			return errWrongAnswer
		}
	case 1:
		data, err := s.ReadFile(p.fileNames[d][f])
		if err != nil {
			return err
		}
		if !p.matches(data, p.size[d][f], fileID(d, f)) {
			return errWrongAnswer
		}
	case 2:
		slot := (i / fileioOpKinds) % fileioScratchSlots
		w := written{id: uint64(c+1)<<32 | uint64(i), n: p.writeLen[c][i]}
		if err := s.WriteFile(scratch[slot], p.stamped(w.n, w.id)); err != nil {
			return err
		}
		lastWrite[slot] = w
	case 3:
		entries, err := s.List(p.dirNames[d])
		if err != nil {
			return err
		}
		if len(entries) != len(p.fileNames[d]) {
			return errWrongAnswer
		}
	}
	return nil
}

func fileioWorkload() *workload {
	return &workload{name: "paper_fileio",
		prepare: func(seed uint64, div int) func() (*instance, error) {
			return newFileioPlan(seed, div).build
		}}
}
