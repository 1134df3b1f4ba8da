package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runJSON drives the command as main does and returns its exit status with
// the records it wrote to -json.
func runJSON(t *testing.T, args ...string) (int, []benchRecord) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "records.json")
	var out strings.Builder
	status := run(append(args, "-json", path), &out)
	t.Log(out.String())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no -json file after exit status %d: %v", status, err)
	}
	var env benchEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	return status, env.Records
}

func TestRegistry(t *testing.T) {
	seen := map[string]bool{"all": true, "paper": true, "live": true}
	for _, e := range experiments {
		if seen[e.id] {
			t.Errorf("experiment id %q is taken (by another experiment, a group or 'all')", e.id)
		}
		seen[e.id] = true
		if e.group != "paper" && e.group != "live" {
			t.Errorf("experiment %q is in group %q, want paper or live", e.id, e.group)
		}
	}
	var out strings.Builder
	if status := run([]string{"-list"}, &out); status != 0 {
		t.Fatalf("-list exited %d", status)
	}
	if n := strings.Count(out.String(), "\n"); n != len(experiments) {
		t.Errorf("-list printed %d lines for %d experiments", n, len(experiments))
	}
}

// TestLiveGroup is `make bench-smoke` at a smaller storm: every live
// experiment passes its gates, measures something, and executed every query
// it checked.
func TestLiveGroup(t *testing.T) {
	status, records := runJSON(t, "-exp", "live", "-objects", "5", "-conns", "64")
	if status != 0 {
		t.Errorf("exit status %d", status)
	}
	checkGroup(t, "live", records)
	for _, r := range records {
		if len(r.Gates) == 0 {
			t.Errorf("%s: no gates", r.Experiment)
		}
		for _, g := range r.Gates {
			if !g.Pass {
				t.Errorf("%s: gate %s failed: %s", r.Experiment, g.Name, g.Detail)
			}
		}
		if served, ok := r.Metrics["cache_served"]; !ok || served != 0 {
			t.Errorf("%s: cache_served = %v (recorded: %v), want 0: a checked query must execute", r.Experiment, served, ok)
		}
		if r.Metrics["queries"] == 0 {
			t.Errorf("%s: no checked queries", r.Experiment)
		}
	}
}

func TestPaperGroup(t *testing.T) {
	status, records := runJSON(t, "-exp", "paper", "-objects", "5")
	if status != 0 {
		t.Errorf("exit status %d", status)
	}
	checkGroup(t, "paper", records)
}

// checkGroup expects one ok record with at least one metric for every
// experiment of the group, and none for any other.
func checkGroup(t *testing.T, group string, records []benchRecord) {
	t.Helper()
	byID := map[string]benchRecord{}
	for _, r := range records {
		byID[r.Experiment] = r
		if r.Group != group {
			t.Errorf("-exp %s ran %s of group %s", group, r.Experiment, r.Group)
		}
	}
	for _, e := range experiments {
		if e.group != group {
			continue
		}
		r, ok := byID[e.id]
		switch {
		case !ok:
			t.Errorf("%s: no record", e.id)
		case !r.OK:
			t.Errorf("%s: not ok: %s", e.id, r.Error)
		case len(r.Metrics) == 0:
			t.Errorf("%s: no metrics", e.id)
		}
	}
}

// TestFailedGateFailsTheRun: a gate that does not pass makes the command
// exit non-zero, and the record — with what was measured before the gate —
// still reaches the -json file.
func TestFailedGateFailsTheRun(t *testing.T) {
	saved := experiments
	defer func() { experiments = saved }()
	experiments = append(saved[:len(saved):len(saved)], experiment{"doomed", "live", "an experiment whose gate fails", func(c *benchCtx) error {
		c.metric("measured", 42)
		c.gate("always_fails", false, "as the test wants")
		return nil
	}})
	status, records := runJSON(t, "-exp", "doomed")
	if status == 0 {
		t.Error("exit status 0 after a failed gate")
	}
	if len(records) != 1 || records[0].Experiment != "doomed" {
		t.Fatalf("records = %+v, want the doomed experiment's", records)
	}
	r := records[0]
	if r.OK || !strings.Contains(r.Error, "always_fails") {
		t.Errorf("record ok = %v, error = %q; want a failure naming the gate", r.OK, r.Error)
	}
	if r.Metrics["measured"] != 42 || len(r.Gates) != 1 || r.Gates[0].Pass {
		t.Errorf("record lost its measurements: %+v", r)
	}
}

func TestUnknownExperimentIsAnError(t *testing.T) {
	for _, args := range [][]string{{"-exp", "merge-pipeline"}, {"-exp", ""}, {"-no-such-flag"}} {
		if status := run(args, io.Discard); status == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
	}
}
