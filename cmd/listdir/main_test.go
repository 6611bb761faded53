package main

import (
	"strings"
	"testing"
)

func TestListdirDefaultTour(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Every context type the paper's §6 list-directory command covers
	// appears with its typed rendering.
	for _, want := range []string{
		"context prefixes",
		"file", "welcome.txt",
		"directory",
		"link", "archive",
		"terminal", "vgt1",
		"print-job", "naming-paper.ps",
		"tcp-connection", "su-score.arpa:23",
		"mailbox", "mann@v.stanford.edu", "1 message(s)",
		"program", "editor.1",
		"pipe", "ls-to-more", "12 bytes buffered",
		"service-binding", "clock",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestListdirExplicitContexts(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"[bin]"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"hello", "editor", "compiler"} {
		if !strings.Contains(out, want) {
			t.Errorf("[bin] listing missing %q", want)
		}
	}
}

func TestListdirBadContextReportsError(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"[nosuch]"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "error:") {
		t.Fatalf("expected an inline error, got:\n%s", sb.String())
	}
}
