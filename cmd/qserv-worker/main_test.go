package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/xrd"
)

// lockedBuffer is a bytes.Buffer run writes to while the test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunServesUntilInterrupted drives the daemon in process: it says where
// it serves, answers a health probe over TCP under its -name, and exits 0
// on an interrupt; arguments it does not take exit 2 with the usage, and a
// -mem-budget without a -data-dir exits 1 before it serves.
func TestRunServesUntilInterrupted(t *testing.T) {
	out := &lockedBuffer{}
	done := make(chan int, 1)
	go func() { done <- run([]string{"-name", "wt", "-addr", "127.0.0.1:0", "-slots", "2"}, out) }()
	serving := regexp.MustCompile(`worker wt serving on (\S+)\n`)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; {
		if m := serving.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("no serving line:\n%s", out.String())
		}
		select {
		case code := <-done:
			t.Fatalf("run exited %d before serving:\n%s", code, out.String())
		case <-time.After(10 * time.Millisecond):
		}
	}
	data, err := xrd.NewTCPEndpoint("wt", addr).HandleRead(xrd.PingPath)
	if err != nil {
		t.Fatal(err)
	}
	var ping xrd.PingStatus
	if err := json.Unmarshal(data, &ping); err != nil || ping.Worker != "wt" || ping.Chunks != 0 {
		t.Errorf("a fresh worker's ping: %+v (%v) from %s", ping, err, data)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 || !strings.Contains(out.String(), "shutting down") {
			t.Errorf("an interrupt exits %d:\n%s", code, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("an interrupt did not stop the worker")
	}

	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-no-such-flag"}, 2},
		{[]string{"-addr", "127.0.0.1:0", "extra"}, 2},
		{[]string{"-addr", "127.0.0.1:0", "-mem-budget", "4096"}, 1},
	} {
		var b bytes.Buffer
		if code := run(tc.args, &b); code != tc.code {
			t.Errorf("run %q exits %d, want %d:\n%s", tc.args, code, tc.code, b.String())
		}
		if tc.code == 2 && !strings.Contains(b.String(), "-interactive-slots") {
			t.Errorf("run %q prints no usage:\n%s", tc.args, b.String())
		}
	}
}
