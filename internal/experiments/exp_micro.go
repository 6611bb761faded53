package experiments

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/rig"
	"repro/internal/vtime"
)

// e1 reproduces the §3.1 / Figure 1 IPC measurement: the time for a
// Send-Receive-Reply sequence with 32-byte messages between two processes,
// on the same and on separate hosts.
func e1() ([]Row, error) {
	remote3, local3, err := e1Measure(nil)
	if err != nil {
		return nil, err
	}
	remote10, _, err := e1Measure(vtime.Model10Mbit())
	if err != nil {
		return nil, err
	}
	return []Row{
		{Label: "separate hosts (3 Mbit Ethernet)", Paper: "2.56 ms", Measured: ms(remote3),
			Note: "100-trial average"},
		{Label: "separate hosts (10 Mbit Ethernet)", Paper: "-", Measured: ms(remote10),
			Note: "CPU-bound: the faster wire barely helps"},
		{Label: "same host", Paper: "-", Measured: ms(local3),
			Note: "paper reports only the remote case"},
	}, nil
}

// startEcho starts the §3.1 echo server on h, a served process: every
// message it receives comes back as ReplyOK.
func startEcho(h *kernel.Host) (*kernel.Process, error) {
	p, err := h.NewProcess("echo")
	if err != nil {
		return nil, err
	}
	p.Serve(func(msg *proto.Message, from kernel.PID) {
		reply := *msg
		reply.Op = proto.ReplyOK
		_ = p.Reply(&reply, from)
	})
	return p, nil
}

// echoTimes runs n 32-byte Send-Receive-Reply transactions from cli to
// the echo server dst and returns the virtual time they took.
func echoTimes(cli *kernel.Process, dst kernel.PID, n int) (time.Duration, error) {
	start := cli.Now()
	for i := 0; i < n; i++ {
		if _, err := cli.Send(&proto.Message{Op: proto.OpEcho}, dst); err != nil {
			return 0, err
		}
	}
	return cli.Now() - start, nil
}

// e1Measure runs the E1 workload under the given model (nil = default).
func e1Measure(model *vtime.CostModel) (remote, local time.Duration, err error) {
	cfg := rig.DefaultConfig()
	cfg.Model = model
	r, err := rig.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	ws := r.WS[0]
	echoRemote, err := startEcho(r.FS1Host)
	if err != nil {
		return 0, 0, err
	}
	echoLocal, err := startEcho(ws.Host)
	if err != nil {
		return 0, 0, err
	}
	cli, err := ws.Host.NewProcess("echo-client")
	if err != nil {
		return 0, 0, err
	}
	const trials = 100
	if remote, err = echoTimes(cli, echoRemote.PID(), trials); err != nil {
		return 0, 0, err
	}
	if local, err = echoTimes(cli, echoLocal.PID(), trials); err != nil {
		return 0, 0, err
	}
	return remote / trials, local / trials, nil
}

// e2 reproduces the §3.1 program-load measurement: 64 KB moved by MoveTo
// from a file server's memory into a diskless workstation, and its
// distance from the maximum packet write rate.
func e2() ([]Row, error) {
	load := func(model *vtime.CostModel) (time.Duration, float64, error) {
		cfg := rig.DefaultConfig()
		cfg.Model = model
		r, err := rig.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		s := r.WS[0].Session
		buf := make([]byte, 64*1024)
		start := s.Proc().Now()
		n, err := s.LoadProgram("[bin]editor", buf)
		if err != nil {
			return 0, 0, err
		}
		elapsed := s.Proc().Now() - start
		if n != len(buf) {
			return 0, 0, fmt.Errorf("loaded %d bytes, want %d", n, len(buf))
		}
		// Compare with the driver-floor rate as the paper does.
		floor := r.Model.RemoteHopFloor(len(buf))
		overhead := float64(elapsed-floor) / float64(floor) * 100
		return elapsed, overhead, nil
	}

	elapsed3, overhead3, err := load(nil)
	if err != nil {
		return nil, err
	}
	elapsed10, _, err := load(vtime.Model10Mbit())
	if err != nil {
		return nil, err
	}
	return []Row{
		{Label: "64 KB load time (3 Mbit)", Paper: "338 ms", Measured: ms(elapsed3),
			Note: "request + 128-packet MoveTo + reply"},
		{Label: "64 KB load time (10 Mbit)", Paper: "-", Measured: ms(elapsed10),
			Note: "wire-bound: the faster wire pays off"},
		{Label: "over max packet write rate", Paper: "within 13%", Measured: fmt.Sprintf("%.1f%%", overhead3),
			Note: "floor = driver cost + wire time"},
	}, nil
}

// e3 reproduces the §3.1 sequential file access measurement: reading a
// file in 512-byte pages from a disk that delivers a page every 15 ms,
// with and without server read-ahead.
func e3() ([]Row, error) {
	run := func(readAhead bool) (time.Duration, error) {
		cfg := rig.DefaultConfig()
		cfg.ReadAhead = readAhead
		r, err := rig.New(cfg)
		if err != nil {
			return 0, err
		}
		const pages = 128
		payload := make([]byte, pages*512)
		if err := r.FS1.WriteFile("/users/mann/big.dat", "mann", payload); err != nil {
			return 0, err
		}
		s := r.WS[0].Session
		f, err := s.Open("[home]big.dat", proto.ModeRead)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		start := s.Proc().Now()
		data, err := f.ReadAll()
		if err != nil {
			return 0, err
		}
		if len(data) != pages*512 {
			return 0, fmt.Errorf("read %d bytes", len(data))
		}
		return (s.Proc().Now() - start) / pages, nil
	}

	with, err := run(true)
	if err != nil {
		return nil, err
	}
	without, err := run(false)
	if err != nil {
		return nil, err
	}
	return []Row{
		{Label: "per page, server read-ahead", Paper: "17.13 ms", Measured: ms(with),
			Note: "disk-rate bound; transfer overlapped"},
		{Label: "per page, no read-ahead", Paper: "-", Measured: ms(without),
			Note: "disk + full request round trip"},
	}, nil
}

// timeOpens opens name for reading and releases it n times and returns
// the virtual time the n Open+Release pairs took in total.
func timeOpens(s *client.Session, name string, n int) (time.Duration, error) {
	open := rig.OpenClose(name)
	start := s.Proc().Now()
	for i := 0; i < n; i++ {
		if err := open(s, i); err != nil {
			return 0, fmt.Errorf("open %q: %w", name, err)
		}
	}
	return s.Proc().Now() - start, nil
}

// t1 reproduces the §6 Open latency table: current context vs. context
// prefix, file server local vs. remote, and the prefix overhead that is
// identical in both columns because the prefix server is always local.
func t1() ([]Row, error) {
	r, err := rig.New(rig.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ws := r.WS[0]
	s := ws.Session

	// A local file server process on the workstation (§3: adding a local
	// server requires no other changes).
	localFS, err := fileserver.Start(ws.Host, "local")
	if err != nil {
		return nil, err
	}
	if err := localFS.WriteFile("/f.txt", ws.User, []byte("local file")); err != nil {
		return nil, err
	}
	if err := ws.Prefix.Define("local", localFS.RootPair()); err != nil {
		return nil, err
	}
	localCtx, err := s.MapContext("[local]")
	if err != nil {
		return nil, err
	}

	// Each trial is one Open and one Release; the paper's Open figure
	// excludes the Release, so measure one to subtract it.
	closeCost := func(name string) (time.Duration, error) {
		f, err := s.Open(name, proto.ModeRead)
		if err != nil {
			return 0, err
		}
		start := s.Proc().Now()
		err = f.Close()
		return s.Proc().Now() - start, err
	}
	closeLocal, err := closeCost("[local]f.txt")
	if err != nil {
		return nil, err
	}
	closeRemote, err := closeCost("[home]welcome.txt")
	if err != nil {
		return nil, err
	}

	const trials = 50
	open := func(name string, current core.ContextPair, release time.Duration) (time.Duration, error) {
		if current != (core.ContextPair{}) {
			s.SetCurrent(current)
		}
		total, err := timeOpens(s, name, trials)
		return total/trials - release, err
	}
	curLocal, err := open("f.txt", localCtx, closeLocal)
	if err != nil {
		return nil, err
	}
	curRemote, err := open("welcome.txt", ws.HomeCtx, closeRemote)
	if err != nil {
		return nil, err
	}
	pfxLocal, err := open("[local]f.txt", core.ContextPair{}, closeLocal)
	if err != nil {
		return nil, err
	}
	pfxRemote, err := open("[home]welcome.txt", core.ContextPair{}, closeRemote)
	if err != nil {
		return nil, err
	}

	return []Row{
		{Label: "current context, server local", Paper: "1.21 ms", Measured: ms(curLocal)},
		{Label: "current context, server remote", Paper: "3.70 ms", Measured: ms(curRemote)},
		{Label: "via prefix, server local", Paper: "5.14 ms", Measured: ms(pfxLocal)},
		{Label: "via prefix, server remote", Paper: "7.69 ms", Measured: ms(pfxRemote)},
		{Label: "prefix overhead (local column)", Paper: "3.94 ms", Measured: ms(pfxLocal - curLocal),
			Note: "prefix server processing, always local"},
		{Label: "prefix overhead (remote column)", Paper: "3.99 ms", Measured: ms(pfxRemote - curRemote),
			Note: "identical within experimental error"},
	}, nil
}

// e5 reproduces the §6 space-cost observation: the context prefix server
// is small. The paper reports 4.5 KB of MC68000 code and 2.6 KB of data;
// we report the prefix table's in-memory size at the standard
// configuration and its growth per entry.
func e5() ([]Row, error) {
	r, err := rig.New(rig.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ws := r.WS[0]
	base := ws.Prefix.TableBytes()
	baseCount := len(ws.Prefix.Bindings())

	// Grow the table to measure per-entry cost.
	const extra = 64
	for i := 0; i < extra; i++ {
		if err := ws.Prefix.Define(fmt.Sprintf("extra%02d", i), r.FS1.RootPair()); err != nil {
			return nil, err
		}
	}
	grown := ws.Prefix.TableBytes()
	perEntry := (grown - base) / extra

	return []Row{
		{Label: "prefix table data", Paper: "2.6 KB", Measured: fmt.Sprintf("%d B (%d prefixes)", base, baseCount),
			Note: "paper's figure is mostly reserved directory space"},
		{Label: "per additional prefix", Paper: "-", Measured: fmt.Sprintf("%d B", perEntry)},
		{Label: "server code", Paper: "4.5 KB (MC68000)", Measured: "n/a",
			Note: "Go binaries are not comparable; see EXPERIMENTS.md"},
	}, nil
}
