package explore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/ioa"
)

// searchMode is one frontier/seen-set representation under test. The
// spill thresholds are tiny on purpose so even these small searches
// push sums to disk and through at least one run merge.
type searchMode struct {
	name string
	mod  func(t *testing.T, cfg *Config)
}

func allModes(t *testing.T) []searchMode {
	t.Helper()
	return []searchMode{
		{"classic", func(t *testing.T, cfg *Config) {}},
		{"arena", func(t *testing.T, cfg *Config) { cfg.Arena = true }},
		{"spill", func(t *testing.T, cfg *Config) {
			cfg.SpillDir = t.TempDir()
			cfg.SpillThreshold = 256
		}},
		{"spill+arena", func(t *testing.T, cfg *Config) {
			cfg.Arena = true
			cfg.SpillDir = t.TempDir()
			cfg.SpillThreshold = 256
		}},
	}
}

// TestModesEquivalence: the disk-spill seen-set and the frontier arena
// are pure representation changes — for both the violating and the
// clean exhaustive workload, under every combination of worker count,
// symmetry, and POR, each mode must reproduce the classic in-memory
// run bit-for-bit: same verdict, same trace, same StatesExplored and
// DepthReached.
func TestModesEquivalence(t *testing.T) {
	workloads := []struct {
		name  string
		setup func(t *testing.T) (*core.System, Config)
	}{
		{"violating", crashSearch},
		{"verifying", verifySearch},
	}
	for _, wl := range workloads {
		for _, workers := range []int{1, 4} {
			for _, sym := range []bool{false, true} {
				for _, por := range []bool{false, true} {
					label := fmt.Sprintf("%s/w%d/sym=%t/por=%t", wl.name, workers, sym, por)
					t.Run(label, func(t *testing.T) {
						sys, base := wl.setup(t)
						base.Workers = workers
						base.Symmetry = sym
						base.POR = por

						// requireEqualResults compares traces too. At w4 that
						// holds for crashSearch because its levels before the
						// violating one are at most 28 nodes wide, below
						// levelBatch, so one worker expands each in order and
						// the violating level's frontier order is the
						// sequential one; that level has a single violating
						// successor, so whichever worker finds it reports the
						// same trace.
						var want *Result
						for _, mode := range allModes(t) {
							cfg := base
							mode.mod(t, &cfg)
							res, err := BFS(sys, cfg)
							if err != nil {
								t.Fatalf("%s: %v", mode.name, err)
							}
							if mode.name == "classic" {
								want = res
								continue
							}
							requireEqualResults(t, mode.name, res, want)
							if cfg.SpillDir != "" {
								if res.Spill == nil {
									t.Fatalf("%s: Result.Spill not populated", mode.name)
								}
								// The violating workload halts at the counterexample
								// before the front can fill; only a search that outgrew
								// the threshold must have actually spilled.
								if res.StatesExplored > cfg.SpillThreshold && res.Spill.Spills == 0 {
									t.Errorf("%s: %d states explored but threshold %d never tripped (%+v)",
										mode.name, res.StatesExplored, cfg.SpillThreshold, *res.Spill)
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestModesCheckpointBytesIdentical: a checkpoint is a statement about
// the search, not about the data structures that ran it — so the file a
// spilling arena run writes at level k must be byte-identical to the
// one the classic run writes, given the same hash seed. The seed is
// forced equal by resuming all modes from one level-1 checkpoint.
func TestModesCheckpointBytesIdentical(t *testing.T) {
	sys, seedCfg := verifySearch(t)
	dir := t.TempDir()
	seedPath := filepath.Join(dir, "seed.ckpt")
	stopAtLevel(&seedCfg, 1, seedPath)
	if _, err := BFS(sys, seedCfg); err != nil {
		t.Fatal(err)
	}
	seedCk, err := ReadCheckpoint(seedPath)
	if err != nil {
		t.Fatal(err)
	}

	var want []byte
	for _, mode := range allModes(t) {
		_, cfg := verifySearch(t)
		mode.mod(t, &cfg)
		cfg.Resume = seedCk
		path := filepath.Join(dir, mode.name+".ckpt")
		stopAtLevel(&cfg, 3, path)
		if _, err := BFS(sys, cfg); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		if mode.name == "classic" {
			want = blob
			continue
		}
		if string(blob) != string(want) {
			t.Errorf("%s: checkpoint differs from classic (%d vs %d bytes)", mode.name, len(blob), len(want))
		}
	}
}

// TestModesCrossResume: a checkpoint written under one representation
// must resume under any other — configDigest deliberately excludes
// SpillDir/SpillThreshold/Arena — and finish with the classic
// uninterrupted result.
func TestModesCrossResume(t *testing.T) {
	sys, baseCfg := crashSearch(t)
	want, err := BFS(sys, baseCfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, writer := range allModes(t) {
		for _, resumer := range allModes(t) {
			if writer.name == resumer.name {
				continue
			}
			t.Run(writer.name+"->"+resumer.name, func(t *testing.T) {
				_, cfg := crashSearch(t)
				writer.mod(t, &cfg)
				path := filepath.Join(t.TempDir(), "cross.ckpt")
				stopAtLevel(&cfg, 2, path)
				if _, err := BFS(sys, cfg); err != nil {
					t.Fatal(err)
				}
				ck, err := ReadCheckpoint(path)
				if err != nil {
					t.Fatal(err)
				}
				_, cfg2 := crashSearch(t)
				resumer.mod(t, &cfg2)
				cfg2.Resume = ck
				res, err := BFS(sys, cfg2)
				if err != nil {
					t.Fatal(err)
				}
				requireEqualResults(t, writer.name+"->"+resumer.name, res, want)
			})
		}
	}
}

// TestSpillConfigRejected pins the one composition that cannot work:
// exact dedup needs the full keys, which the spill format (sorted
// 64-bit sums) cannot hold.
func TestSpillConfigRejected(t *testing.T) {
	sys, cfg := crashSearch(t)
	cfg.ExactDedup = true
	cfg.SpillDir = t.TempDir()
	if _, err := BFS(sys, cfg); err == nil {
		t.Fatal("BFS accepted ExactDedup together with SpillDir")
	}
}

// BenchmarkFrontierPromotion isolates the per-admission cost the arena
// exists to cut: materializing one generation of the frontier from its
// parents. The classic path allocates a heap *node (plus a used-bitmap
// copy on pool admissions) per successor; the arena path appends to
// reused parallel slabs and bit-packs the bitmap. B/op and allocs/op
// are the figures of merit — in a full search successor-state cloning
// dominates wall clock, so the win only shows up isolated here and as
// retained frontier bytes at scale.
func BenchmarkFrontierPromotion(b *testing.B) {
	const parents, succs, inputs = 1024, 4, 4
	usedStride := (inputs + 63) / 64
	actions := pool(2)

	b.Run("classic", func(b *testing.B) {
		level := make([]*node, parents)
		for i := range level {
			level[i] = &node{used: make([]bool, inputs), depth: 3}
		}
		next := make([]*node, 0, parents*succs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next = next[:0]
			for pi, parent := range level {
				for sj := 0; sj < succs; sj++ {
					used := parent.used
					if sj == 0 { // one pool admission per parent, as in a typical level
						used = append([]bool(nil), parent.used...)
						used[pi%inputs] = true
					}
					next = append(next, &node{
						used: used, depth: parent.depth + 1,
						parent: parent, action: actions[sj%len(actions)],
					})
				}
			}
		}
		b.ReportMetric(float64(parents*succs), "nodes/gen")
	})

	b.Run("arena", func(b *testing.B) {
		level := &arenaLevel{
			inputs: inputs, usedStride: usedStride, depth: 3,
			actions:  make([]ioa.Action, parents),
			parents:  make([]uint32, parents),
			states:   make([]ioa.State, parents),
			monitors: make([]Monitor, parents),
			usedBits: make([]uint64, parents*usedStride),
		}
		var batch arenaBatch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next := nextArenaLevel(level)
			for pi := 0; pi < parents; pi++ {
				for sj := 0; sj < succs; sj++ {
					s := succ{action: actions[sj%len(actions)], usedIdx: -1}
					if sj == 0 {
						s.usedIdx = pi % inputs
					}
					batch.add(level, pi, &s)
				}
			}
			next.absorb(&batch)
		}
		b.ReportMetric(float64(parents*succs), "nodes/gen")
	})
}
