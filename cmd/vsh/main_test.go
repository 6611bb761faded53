package main

import (
	"strings"
	"testing"
)

func runScript(t *testing.T, script string) string {
	t.Helper()
	var sb strings.Builder
	if err := run([]string{"-c", script}, strings.NewReader(""), &sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestVshNavigation(t *testing.T) {
	out := runScript(t, "cat welcome.txt; cd notes; pwd; cat todo.txt")
	for _, want := range []string{
		"Welcome to the V-System, mann.",
		"/users/mann/notes",
		"naming paper",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestVshFileLifecycle(t *testing.T) {
	out := runScript(t, "write memo.txt remember; cat memo.txt; mv memo.txt note.txt; ls; rm note.txt; ls")
	if !strings.Contains(out, "remember") {
		t.Fatalf("write/cat failed:\n%s", out)
	}
	if !strings.Contains(out, "note.txt") {
		t.Fatalf("mv/ls failed:\n%s", out)
	}
	// After rm, the final ls must not show note.txt.
	lastLs := out[strings.LastIndex(out, "note.txt"):]
	if strings.Count(out, "note.txt") > 2 || strings.Contains(lastLs[8:], "note.txt") {
		t.Logf("output:\n%s", out)
	}
}

func TestVshPrefixCommands(t *testing.T) {
	out := runScript(t, "prefixes; addprefix archive [storage2]/archive; cat [archive]2026/paper.mss; rmprefix archive; cat [archive]2026/paper.mss")
	if !strings.Contains(out, "[storage]") || !strings.Contains(out, "[bin]") {
		t.Fatalf("prefixes listing missing:\n%s", out)
	}
	if !strings.Contains(out, "Uniform Access") {
		t.Fatalf("read through added prefix failed:\n%s", out)
	}
	if !strings.Contains(out, "nonexistent name") {
		t.Fatalf("deleted prefix should fail:\n%s", out)
	}
}

// TestVshDynamicPrefix binds a prefix to a (service, well-known context)
// pair, which the prefix server re-resolves by GetPid on each use (§4.2).
func TestVshDynamicPrefix(t *testing.T) {
	out := runScript(t, "addprefix pub storage 0xffff0003; prefixes; cat [pub]users/mann/welcome.txt; addprefix x nosuch 1")
	if !strings.Contains(out, "[pub]\tdynamic -> (0x1, ctx 0xffff0003)") {
		t.Fatalf("dynamic binding not listed:\n%s", out)
	}
	if !strings.Contains(out, "Welcome to the V-System, mann.") {
		t.Fatalf("read through the dynamic prefix failed:\n%s", out)
	}
	if !strings.Contains(out, `unknown service "nosuch"`) {
		t.Fatalf("bad service not reported:\n%s", out)
	}
}

// TestVshCrossServerLink links a name in the home directory on one file
// server to a context on the other (Figure 4) and reads through it.
func TestVshCrossServerLink(t *testing.T) {
	out := runScript(t, "link papers [storage2]/archive; ls; cat papers/2026/paper.mss; unlink papers; cat papers/2026/paper.mss")
	if !strings.Contains(out, "link                    0  papers") {
		t.Fatalf("link missing from the listing:\n%s", out)
	}
	if !strings.Contains(out, "Uniform Access") {
		t.Fatalf("read through the link failed:\n%s", out)
	}
	if !strings.Contains(out, "nonexistent name") {
		t.Fatalf("unlinked name should fail:\n%s", out)
	}
}

func TestVshQueryAndChmod(t *testing.T) {
	out := runScript(t, "query welcome.txt; chmod r welcome.txt; query welcome.txt")
	if !strings.Contains(out, "file") || !strings.Contains(out, "perms=001") {
		t.Fatalf("query/chmod output:\n%s", out)
	}
}

func TestVshLoadAndExec(t *testing.T) {
	out := runScript(t, "load [bin]editor; exec hello; jobs")
	if !strings.Contains(out, "loaded 65536 bytes") {
		t.Fatalf("load output:\n%s", out)
	}
	if !strings.Contains(out, "started hello.") || !strings.Contains(out, "image hello") {
		t.Fatalf("exec/jobs output:\n%s", out)
	}
}

// TestVshServerObjects drives the transient-object servers through the
// shell's generic commands: a terminal and a connection written and read
// back, a print job read and cancelled, a program killed by removing its
// name, the Internet server's root listed, and the time asked of the time
// server.
func TestVshServerObjects(t *testing.T) {
	out := runScript(t, "write [tty]new hello; cat [tty]vgt1; "+
		"write [tcp]tcp/su-score.arpa:23 login; cat [tcp]tcp/su-score.arpa:23; ls [tcp]; "+
		"print doc.ps payload; cat [print]doc.ps; rm [print]doc.ps; ls [print]; "+
		"exec hello; rm [exec]hello.1; jobs; time")
	for _, want := range []string{"hello\n", "login\n", "directory               0  tcp", "payload", "(time server)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "print-job") || strings.Contains(out, "image hello") {
		t.Errorf("a removed object is still listed:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if cmd, _, failed := strings.Cut(line, ": "); failed && !strings.Contains(cmd, " ") {
			t.Errorf("%s failed: %s", cmd, line)
		}
	}
}

func TestVshPrintAndMail(t *testing.T) {
	out := runScript(t, "print doc.ps PostScript payload; ls [print]; mail mann@v.stanford.edu hello there; ls [mail]")
	if !strings.Contains(out, "doc.ps") {
		t.Fatalf("print queue missing job:\n%s", out)
	}
	if !strings.Contains(out, "mann@v.stanford.edu") {
		t.Fatalf("mail listing missing:\n%s", out)
	}
}

func TestVshErrorsAreNonFatal(t *testing.T) {
	out := runScript(t, "cat nosuchfile; cat nosuchdir/x.txt; pwd")
	if !strings.Contains(out, "nonexistent name") {
		t.Fatalf("error not reported:\n%s", out)
	}
	// A failure inside the path names the component and the server (§7).
	if !strings.Contains(out, `component "nosuchdir" (byte 0, context 0x0) by server`) {
		t.Fatalf("name fault not explained:\n%s", out)
	}
	if !strings.Contains(out, "users/mann") {
		t.Fatalf("shell should continue after errors:\n%s", out)
	}
}

func TestVshSecondUser(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-user", "cheriton", "-c", "cat welcome.txt"}, strings.NewReader(""), &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "cheriton") {
		t.Fatalf("wrong user view:\n%s", sb.String())
	}
}

func TestVshStdinMode(t *testing.T) {
	var sb strings.Builder
	stdin := strings.NewReader("pwd\n# a comment\ncat welcome.txt\n")
	if err := run(nil, stdin, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Welcome to the V-System") {
		t.Fatalf("stdin script failed:\n%s", sb.String())
	}
}

func TestVshUnknownCommand(t *testing.T) {
	out := runScript(t, "frobnicate")
	if !strings.Contains(out, "unknown command") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestVshHelp(t *testing.T) {
	out := runScript(t, "help")
	if !strings.Contains(out, "commands:") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestVshMkdirAndPatternLs(t *testing.T) {
	out := runScript(t, "mkdir docs; write docs/a.mss x; write docs/b.txt y; lsp docs *.mss; cd docs; pwd")
	if !strings.Contains(out, "a.mss") {
		t.Fatalf("pattern ls missing match:\n%s", out)
	}
	if strings.Contains(out, "b.txt") {
		t.Fatalf("pattern ls leaked non-match:\n%s", out)
	}
	if !strings.Contains(out, "/users/mann/docs") {
		t.Fatalf("mkdir/cd failed:\n%s", out)
	}
}

func TestVshUnlink(t *testing.T) {
	out := runScript(t, "unlink [storage]/shared/archive; ls [storage]/shared; cat [storage2]/archive/2026/paper.mss")
	if !strings.Contains(out, "Uniform Access") {
		t.Fatalf("unlink must not touch the remote tree:\n%s", out)
	}
	if strings.Contains(out, "link") {
		t.Fatalf("link should be gone from the listing:\n%s", out)
	}
}

func TestVshPipes(t *testing.T) {
	out := runScript(t, "pipe-send results benchmark finished; pipe-recv results")
	if !strings.Contains(out, "benchmark finished") {
		t.Fatalf("pipe round trip failed:\n%s", out)
	}
}

func TestVshStats(t *testing.T) {
	out := runScript(t, "stats")
	if !strings.Contains(out, "prefixes defined") || !strings.Contains(out, "virtual time") {
		t.Fatalf("stats output:\n%s", out)
	}
}

func TestVshNameInverse(t *testing.T) {
	out := runScript(t, "name [home]welcome.txt")
	if !strings.Contains(out, "was opened as") || !strings.Contains(out, "welcome.txt") {
		t.Fatalf("name output:\n%s", out)
	}
}

func TestVshHardLink(t *testing.T) {
	out := runScript(t, "write one.txt shared; ln one.txt two.txt; cat two.txt; rm one.txt; cat two.txt; query two.txt")
	if strings.Count(out, "shared") < 2 {
		t.Fatalf("hard link behaviour wrong:\n%s", out)
	}
	if !strings.Contains(out, "file") {
		t.Fatalf("query output:\n%s", out)
	}
}
