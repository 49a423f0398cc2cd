package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/ioa"
	"repro/internal/obs"
)

func TestCrashFlags(t *testing.T) {
	var c crashFlags
	if err := c.Set("t"); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("r"); err != nil {
		t.Fatal(err)
	}
	if len(c) != 2 || c[0] != ioa.TR || c[1] != ioa.RT {
		t.Errorf("crashFlags = %v", c)
	}
	if err := c.Set("x"); err == nil {
		t.Error("expected error for bad station")
	}
	if c.String() == "" {
		t.Error("String() empty")
	}
}

func TestRunFindsAndVerifies(t *testing.T) {
	base := options{n: 2, w: 1, maxStates: explore.DefaultMaxStates, workers: 2, progress: io.Discard}
	// Finds the reordering bug.
	o := base
	o.proto, o.msgs, o.depth, o.inTransit = "gbn", 3, 26, 3
	if err := run(o, io.Discard); err != nil {
		t.Errorf("gbn search: %v", err)
	}
	// Verifies ABP over FIFO without crashes, with profiles written.
	o = base
	o.proto, o.fifo, o.msgs, o.depth, o.inTransit = "abp", true, 2, 18, 2
	o.cpuProfile = t.TempDir() + "/cpu.pprof"
	o.memProfile = t.TempDir() + "/mem.pprof"
	if err := run(o, io.Discard); err != nil {
		t.Errorf("abp verify: %v", err)
	}
	for _, path := range []string{o.cpuProfile, o.memProfile} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("profile %s not written (err=%v)", path, err)
		}
	}
	// Finds the crash bug (exact-dedup path).
	o = base
	o.proto, o.fifo, o.msgs, o.depth, o.inTransit = "abp", true, 1, 20, 2
	o.crashes = []ioa.Dir{ioa.RT}
	o.exactDedup = true
	if err := run(o, io.Discard); err != nil {
		t.Errorf("abp crash search: %v", err)
	}
	// Unknown protocol errors.
	o = base
	o.proto, o.fifo, o.msgs, o.depth, o.inTransit, o.maxStates = "nope", true, 1, 5, 1, 100
	if err := run(o, io.Discard); err == nil {
		t.Error("expected error for unknown protocol")
	}
}

// violatingOptions is the Thm 7.5 configuration: the volatile ABP
// receiver with a crash event, whose search exits early on a violation.
func violatingOptions(dir string) options {
	return options{
		proto: "abp", n: 2, w: 1, fifo: true,
		msgs: 1, depth: 20, inTransit: 2, maxStates: explore.DefaultMaxStates,
		crashes:    []ioa.Dir{ioa.RT},
		workers:    2,
		cpuProfile: filepath.Join(dir, "cpu.pprof"),
		memProfile: filepath.Join(dir, "mem.pprof"),
		progress:   io.Discard,
	}
}

// TestProfilesFlushedOnViolationPath is the regression test for the
// profile teardown: when the search exits early on a violation, both
// pprof artifacts must still be complete files (pprof output is gzip, so
// a flushed profile starts with the gzip magic).
func TestProfilesFlushedOnViolationPath(t *testing.T) {
	dir := t.TempDir()
	o := violatingOptions(dir)
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "VIOLATION") {
		t.Fatalf("expected the crash-ABP search to violate:\n%s", out.String())
	}
	for _, name := range []string{"cpu.pprof", "mem.pprof"} {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(blob) < 2 || blob[0] != 0x1f || blob[1] != 0x8b {
			t.Errorf("%s is not a flushed gzip pprof artifact (%d bytes)", name, len(blob))
		}
	}
}

// TestTraceAndMetricsFlags runs the violating search with -trace and
// -metrics and checks both artifacts: the metrics file is valid JSON
// with the acceptance consistency invariant (expanded == Σ per-worker),
// and the trace is schema-valid JSONL ending in the final metrics event.
// The violation cut the search short, so the summary line and the
// explore.done event must both say exhausted=false and agree on the
// state count.
func TestTraceAndMetricsFlags(t *testing.T) {
	dir := t.TempDir()
	o := violatingOptions(dir)
	o.cpuProfile, o.memProfile = "", ""
	o.tracePath = filepath.Join(dir, "trace.jsonl")
	o.metrics = filepath.Join(dir, "metrics.json")
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	summary := regexp.MustCompile(`explored (\d+) states .*exhausted=(true|false)`).FindStringSubmatch(out.String())
	if summary == nil {
		t.Fatalf("no summary line:\n%s", out.String())
	}
	if summary[2] != "false" {
		t.Errorf("summary reports exhausted=%s after a violation", summary[2])
	}

	blob, err := os.ReadFile(o.metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("metrics file is not valid snapshot JSON: %v", err)
	}
	expanded := snap.Counter("explore.states_expanded")
	var workerSum int64
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, "explore.worker.") {
			workerSum += c.Value
		}
	}
	if expanded == 0 || expanded != workerSum {
		t.Errorf("states_expanded = %d, per-worker sum = %d", expanded, workerSum)
	}

	tf, err := os.Open(o.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	var v obs.Validator
	var lastEvent string
	sawViolation := false
	var done *struct {
		States    int64 `json:"states"`
		Exhausted bool  `json:"exhausted"`
	}
	sc := bufio.NewScanner(tf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		event, err := v.Line(sc.Bytes())
		if err != nil {
			t.Fatalf("trace line invalid: %v", err)
		}
		lastEvent = event
		switch event {
		case "explore.violation":
			sawViolation = true
		case "explore.done":
			if err := json.Unmarshal(sc.Bytes(), &done); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawViolation {
		t.Error("trace has no explore.violation event")
	}
	switch {
	case done == nil:
		t.Error("trace has no explore.done event")
	case done.Exhausted:
		t.Error("explore.done carries exhausted=true after a violation")
	case strconv.FormatInt(done.States, 10) != summary[1]:
		t.Errorf("explore.done states = %d, summary line says %s", done.States, summary[1])
	}
	if lastEvent != "metrics" {
		t.Errorf("trace ends with %q, want the final metrics event", lastEvent)
	}
}

// interruptAtLevel arms o to deliver a real SIGINT to this process once
// the search reaches the given BFS level. The test registers its own
// signal channel first, so the process default (termination) is never in
// play; waiting for the signal to land on that channel plus a short
// grace period guarantees run's own handler has closed its stop channel
// before the level barrier polls it.
func interruptAtLevel(t *testing.T, o *options, level int) {
	t.Helper()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	t.Cleanup(func() { signal.Stop(sigs) })
	var once sync.Once
	o.onLevel = func(ls explore.LevelStats) {
		if ls.Depth+1 >= level {
			once.Do(func() {
				if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
					t.Errorf("self-SIGINT: %v", err)
					return
				}
				<-sigs
				time.Sleep(100 * time.Millisecond)
			})
		}
	}
}

// TestSignaledRunFlushesArtifacts: a SIGINT mid-search stops gracefully
// (errInterrupted), writes a resumable checkpoint, and still flushes a
// schema-valid obs trace, the metrics snapshot and both profiles — the
// regression test for interrupt teardown losing buffered artifacts.
func TestSignaledRunFlushesArtifacts(t *testing.T) {
	dir := t.TempDir()
	o := violatingOptions(dir)
	o.workers = 1
	o.tracePath = filepath.Join(dir, "trace.jsonl")
	o.metrics = filepath.Join(dir, "metrics.json")
	o.checkpoint = filepath.Join(dir, "ck.jsonl")
	o.ckptEvery = "1"
	interruptAtLevel(t, &o, 3)
	var out bytes.Buffer
	if err := run(o, &out); !errors.Is(err, errInterrupted) {
		t.Fatalf("run = %v, want errInterrupted\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "interrupted at a level barrier") {
		t.Errorf("missing interruption report:\n%s", out.String())
	}

	// The checkpoint must decode cleanly.
	if _, err := explore.ReadCheckpoint(o.checkpoint); err != nil {
		t.Errorf("checkpoint after SIGINT: %v", err)
	}
	// The trace must be schema-valid JSONL ending in the metrics event.
	blob, err := os.ReadFile(o.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var v obs.Validator
	lastEvent, sawCkpt := "", false
	sc := bufio.NewScanner(bytes.NewReader(blob))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		event, err := v.Line(sc.Bytes())
		if err != nil {
			t.Fatalf("trace line invalid after SIGINT: %v", err)
		}
		lastEvent = event
		if event == "explore.checkpoint" {
			sawCkpt = true
		}
	}
	if lastEvent != "metrics" {
		t.Errorf("signaled trace ends with %q, want the final metrics event", lastEvent)
	}
	if !sawCkpt {
		t.Error("trace has no explore.checkpoint event")
	}
	// The metrics snapshot and both profiles must be complete files.
	if _, err := os.Stat(o.metrics); err != nil {
		t.Errorf("metrics not flushed: %v", err)
	}
	for _, name := range []string{"cpu.pprof", "mem.pprof"} {
		if pb, err := os.ReadFile(filepath.Join(dir, name)); err != nil || len(pb) < 2 || pb[0] != 0x1f || pb[1] != 0x8b {
			t.Errorf("%s not a flushed gzip profile after SIGINT (err=%v)", name, err)
		}
	}
}

// TestResumeFlagReproducesBaseline: interrupt a sequential violating
// search by real SIGINT, resume it with -resume, and demand the resumed
// run report the same cumulative state count and the identical violation
// trace as an uninterrupted baseline.
func TestResumeFlagReproducesBaseline(t *testing.T) {
	dir := t.TempDir()
	base := violatingOptions(dir)
	base.cpuProfile, base.memProfile = "", ""
	base.workers = 1
	var want bytes.Buffer
	if err := run(base, &want); err != nil {
		t.Fatal(err)
	}

	o := base
	o.checkpoint = filepath.Join(dir, "ck.jsonl")
	interruptAtLevel(t, &o, 4)
	if err := run(o, io.Discard); !errors.Is(err, errInterrupted) {
		t.Fatalf("interrupted run = %v, want errInterrupted", err)
	}

	r := base
	r.resume = o.checkpoint
	var got bytes.Buffer
	if err := run(r, &got); err != nil {
		t.Fatal(err)
	}
	// The violation section (property + trace) must match verbatim; the
	// summary line's timing varies, but the state count must not.
	tail := func(s string) string {
		i := strings.Index(s, "VIOLATION")
		if i < 0 {
			return ""
		}
		return s[i:]
	}
	if tail(got.String()) == "" || tail(got.String()) != tail(want.String()) {
		t.Errorf("resumed violation section differs:\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}
	states := func(s string) string {
		m := regexp.MustCompile(`explored (\d+) states`).FindStringSubmatch(s)
		if m == nil {
			return ""
		}
		return m[1]
	}
	if g, w := states(got.String()), states(want.String()); g == "" || g != w {
		t.Errorf("resumed cumulative states = %s, want %s", g, w)
	}
}

func TestParseCheckpointEvery(t *testing.T) {
	if l, d, err := parseCheckpointEvery("5"); err != nil || l != 5 || d != 0 {
		t.Errorf("parse 5 = (%d, %v, %v)", l, d, err)
	}
	if l, d, err := parseCheckpointEvery("30s"); err != nil || l != 0 || d != 30*time.Second {
		t.Errorf("parse 30s = (%d, %v, %v)", l, d, err)
	}
	for _, bad := range []string{"", "0", "-1", "x", "-2s"} {
		if _, _, err := parseCheckpointEvery(bad); err == nil {
			t.Errorf("parse %q: expected error", bad)
		}
	}
}

// TestSnapshotStreaming: with -snapshot-every and no -metrics, the
// search still gets a registry, the trace carries periodic
// metrics-snapshot events while levels run, and obsreport's terminal
// metrics event is appended — but no metrics file is written.
func TestSnapshotStreaming(t *testing.T) {
	dir := t.TempDir()
	o := options{
		proto: "abp", n: 2, w: 1, fifo: true,
		msgs: 2, depth: 18, inTransit: 2, maxStates: explore.DefaultMaxStates,
		workers: 2, progress: io.Discard,
		tracePath: filepath.Join(dir, "trace.jsonl"),
		snapEvery: time.Millisecond,
		// Pin each level long enough that the ticker is guaranteed to
		// fire at least once during the search, regardless of load.
		onLevel: func(explore.LevelStats) { time.Sleep(3 * time.Millisecond) },
	}
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Open(o.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	var v obs.Validator
	events := map[string]int{}
	sc := bufio.NewScanner(tf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		event, err := v.Line(sc.Bytes())
		if err != nil {
			t.Fatalf("trace line invalid: %v", err)
		}
		events[event]++
	}
	if events["metrics-snapshot"] == 0 {
		t.Errorf("no metrics-snapshot events streamed: %v", events)
	}
	if events["metrics"] != 1 {
		t.Errorf("terminal metrics event count = %d, want 1: %v", events["metrics"], events)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("expected only the trace in %s, got %v", dir, entries)
	}
}
