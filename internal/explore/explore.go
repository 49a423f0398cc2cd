// Package explore is a bounded explicit-state model checker for composed
// data link systems: it enumerates every reachable state of D(A) under a
// chosen environment-input pool and scheduling nondeterminism, checking
// safety monitors on every path.
//
// It complements the adversary package: the adversaries *construct* the
// paper's counterexample executions from the proofs, while the explorer
// *searches* for violations exhaustively. For small instances the two
// agree — the explorer finds reordering counterexamples against
// bounded-header protocols over C̄ (Theorem 8.5's phenomenon) and finds
// crash counterexamples against crashing protocols over Ĉ (Theorem 7.5's
// phenomenon), and it verifies exhaustively that no safety violation is
// reachable for the positive configurations (Stenning over C̄, sliding
// windows over Ĉ) within the explored bound.
//
// The search is a level-synchronous parallel BFS: each depth level is a
// barrier, and within a level a pool of Config.Workers goroutines expands
// frontier nodes concurrently, deduplicating successors through a sharded
// hashed seen-set (see seenset.go) and building dedup keys into per-worker
// reused buffers via the AppendFingerprint fast paths. Because levels
// remain barriers, every node at depths below the first violating level is
// fully expanded before that level is entered, so a returned trace is a
// shortest violating schedule regardless of worker count, and the state
// count a violating search reports (the states admitted before the
// violating level) is a function of the search alone.
//
// Two opt-in representations let searches scale past RAM: Config.SpillDir
// moves the cold majority of the seen-set into sorted run files on disk
// (spill.go), and Config.Arena re-lays each frontier level as flat slabs
// with 32-bit parent offsets instead of one heap node per state
// (arena.go). Both are pure representation changes: verdicts, state
// counts and checkpoint files are identical to the in-memory defaults,
// and so are traces wherever the frontier order is fixed (see
// Config.Workers).
package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/ioa"
	"repro/internal/obs"
)

// Monitor is an online safety checker over data-link behaviors. Monitors
// must be value-like: Step returns a new monitor. The fingerprint
// contributes to state deduplication, so two search nodes are merged only
// when both the system state and the monitor state agree. Monitors may
// additionally implement ioa.AppendFingerprinter; the explorer then builds
// dedup keys without intermediate string allocations.
type Monitor interface {
	// Step observes one external action and returns the successor monitor
	// and a violation if the property just failed.
	Step(a ioa.Action) (Monitor, *Violation)
	// Fingerprint canonically encodes the monitor state.
	Fingerprint() string
}

// Violation reports a safety failure found during exploration.
type Violation struct {
	Property string
	Detail   string
}

func (v Violation) String() string { return v.Property + ": " + v.Detail }

// Config parameterises a search.
type Config struct {
	// Inputs is the pool of environment inputs; each may be injected once,
	// in pool order relative to its duplicates but freely interleaved with
	// everything else. A typical pool is wake, wake, then a few send_msg
	// and crash events.
	Inputs []ioa.Action
	// Monitor is the safety property to check (required).
	Monitor Monitor
	// MaxDepth bounds the path length (0 means DefaultMaxDepth).
	MaxDepth int
	// MaxStates bounds the number of distinct explored nodes (0 means
	// DefaultMaxStates); exceeding it stops the search with Exhausted=false.
	MaxStates int
	// MaxInTransit, when positive, prunes locally-controlled send_pkt
	// actions that would exceed this many undelivered packets per channel.
	// Pruning restricts the explored subspace (found violations remain
	// real), but keeps retransmission-based protocols finite-state.
	MaxInTransit int
	// AllowLoss explores internal lose actions of lossy channels.
	AllowLoss bool
	// Workers is the number of goroutines expanding each BFS level; 0 or 1
	// runs sequentially. Levels are barriers, so what a search reports
	// does not depend on Workers, apart from a violating search's specific
	// trace and the footprint figures (SeenSetBytes, Spill).
	// Exhaustive searches agree on StatesExplored, DepthReached and
	// Exhausted. Violating searches agree on the verdict, the trace
	// length, StatesExplored (the states admitted before the violating
	// level), DepthReached and Exhausted=false. The trace itself is fixed
	// only where the frontier order is. That holds with Workers == 1, and
	// when every level before the violating one is no wider than one
	// worker batch (levelBatch nodes), because one worker then expands
	// each such level in order. Wider levels are split among racing
	// workers, which changes the order of the next frontier; and within
	// the violating level the first violation reported cancels the rest,
	// so the earliest violation seen wins, not necessarily the earliest
	// in frontier order.
	Workers int
	// ExactDedup deduplicates on full fingerprint keys instead of 64-bit
	// hashes: the collision-paranoid escape hatch, at ~key-length bytes
	// per state instead of 8 (see seenset.go for the collision analysis).
	// Incompatible with SpillDir (runs are fixed-width sum files).
	ExactDedup bool
	// SpillDir, when non-empty, selects the disk-spill seen-set: the
	// in-memory front is bounded by SpillThreshold and cold fingerprints
	// live in sorted run files under this directory (which must exist and
	// be writable; run files are removed when the search ends). A pure
	// representation change — verdicts, traces, state counts and
	// checkpoints are identical to the in-memory hashed set. See spill.go.
	SpillDir string
	// SpillThreshold is the maximum in-memory front size (fingerprints)
	// before a spill; 0 means DefaultSpillThreshold. Only meaningful with
	// SpillDir.
	SpillThreshold int
	// Arena re-lays each frontier level as flat slabs (states, monitors,
	// bit-packed used maps) with 32-bit parent offsets instead of one
	// heap node per state; retired levels keep only the action/parent
	// trace skeleton. A pure representation change; see arena.go.
	Arena bool
	// Symmetry enables symmetry reduction: dedup keys canonicalise payload
	// tokens and packet IDs to first-use order, and the inputs-used bitmap
	// collapses to per-class counts, so states differing only by a
	// bijective payload/ID renaming merge. Effective only when the
	// protocol claims Props.PayloadOpaque and the pool's send_msg tokens
	// are pairwise distinct per direction (both checked at BFS start;
	// otherwise the flag is ignored and the search runs unreduced). See
	// reduction.go for the soundness argument.
	Symmetry bool
	// POR enables partial-order reduction: commuting invisible channel
	// actions (deliveries and losses on different channels, losses of
	// different packets on one channel) are explored in one canonical
	// order instead of all interleavings. Transitions are pruned, states
	// are not: the reachable state set and per-depth admission are
	// provably unchanged (see reduction.go), so verdicts, shortest traces
	// and exhausted/depth-limited statuses are identical.
	POR bool
	// Metrics, when non-nil, receives the explorer's counters, gauges
	// and histograms (see obs.go for the name inventory). Nil disables
	// metrics at zero hot-path cost.
	Metrics *obs.Registry
	// Trace, when non-nil, receives structured events: one per BFS
	// level, plus seen-set occupancy, the violation (schedule embedded)
	// and a final summary.
	Trace *obs.Trace
	// OnLevel, when non-nil, is called after every expanded BFS level,
	// including the cut-short violating one (see LevelStats.States) —
	// the hook progress reporters hang off for long searches.
	OnLevel func(LevelStats)
	// Checkpoint configures periodic durable snapshots of the search,
	// written at level barriers (see checkpoint.go). The zero value
	// disables checkpointing.
	Checkpoint CheckpointOptions
	// Resume, when non-nil, restores the search from a decoded checkpoint
	// instead of the start state. The rest of the Config must describe the
	// same search the checkpoint was taken under (validated by digest);
	// Workers may differ, as may SpillDir/SpillThreshold/Arena — they are
	// representation choices, not search parameters. Resuming and running
	// to the end yields the same Result the uninterrupted run would have
	// produced.
	Resume *Checkpoint
	// Stop, when non-nil, requests a graceful stop: once the channel is
	// closed the search finishes the in-flight level, writes a final
	// checkpoint (when Checkpoint is configured), sets Result.Interrupted
	// and returns. Checked only at level barriers, so a stopped search is
	// always resumable from a complete cut.
	Stop <-chan struct{}
}

// Default search bounds.
const (
	DefaultMaxDepth  = 40
	DefaultMaxStates = 1 << 20
)

// SpillReport summarises disk-spill seen-set activity for a finished
// search (Result.Spill; nil unless Config.SpillDir was set).
type SpillReport struct {
	// Spills counts spill events (front flushed to disk).
	Spills int64
	// Merges counts compacting run merges.
	Merges int64
	// Probes counts run-file lookups that got past the Bloom filter.
	Probes int64
	// Runs is the number of live run files at the end.
	Runs int
	// SpilledSums is the number of fingerprints on disk at the end.
	SpilledSums int64
	// DiskBytes is the total size of the live run files at the end.
	DiskBytes int64
}

// Result reports a search outcome.
type Result struct {
	// Violation is nil if no safety failure was found.
	Violation *Violation
	// Trace is a schedule reaching the violation (inputs included), nil
	// when Violation is nil.
	Trace ioa.Schedule
	// StatesExplored counts distinct (state, monitor, inputs-used) nodes
	// admitted, capped at MaxStates. On a violating search it counts the
	// states admitted before the violating level began: that level is cut
	// short when the violation is found, and how much of it was admitted
	// by then depends on worker scheduling, while every earlier level is
	// complete.
	StatesExplored int
	// Exhausted reports that the entire bounded space was covered: no node
	// was dropped for exceeding MaxStates, the search was not interrupted
	// and no violation cut a level short (a violating search always
	// reports false). "Exhausted" always means exhausted *within* MaxDepth —
	// check DepthLimited to see whether the depth bound was the binding
	// constraint. Together with Violation == nil it is a bounded
	// verification certificate.
	Exhausted bool
	// DepthLimited reports that the search stopped at MaxDepth with
	// unexpanded frontier nodes remaining: states beyond the depth bound
	// exist but were not explored, so the Exhausted certificate is
	// conditional on the bound.
	DepthLimited bool
	// Interrupted reports that the search stopped early at a level
	// barrier because Config.Stop was closed; Exhausted is then false and
	// the partial counters reflect the completed levels only.
	Interrupted bool
	// DepthReached is the longest path explored.
	DepthReached int
	// SeenSetBytes approximates the heap held by the dedup set: the
	// memory-per-state figure the hashed seen-set exists to shrink. In
	// spill mode this is the bounded in-memory footprint; the disk side
	// is in Spill.
	SeenSetBytes int64
	// Spill summarises disk-spill activity (nil unless Config.SpillDir
	// was set).
	Spill *SpillReport
}

// ErrNoMonitor is returned when Config.Monitor is nil.
var ErrNoMonitor = errors.New("explore: config needs a monitor")

// ErrSpillConfig is returned for spill configurations the explorer
// cannot honour.
var ErrSpillConfig = errors.New("explore: invalid spill configuration")

// node is a search frontier entry in classic (non-arena) mode, and the
// carrier the checkpoint replay path reconstructs frontiers into.
type node struct {
	state   ioa.State
	monitor Monitor
	used    []bool // which pool inputs have been injected
	depth   int
	// parent chain for trace reconstruction
	parent *node
	action ioa.Action
}

func (n *node) trace() ioa.Schedule {
	return n.appendTrace(nil)
}

// appendTrace appends the root-to-node schedule to dst, walking the
// parent chain twice — once to size, once to fill backwards — so bulk
// callers (checkpoint snapshots) can pack many traces into one shared
// arena without per-node garbage.
func (n *node) appendTrace(dst ioa.Schedule) ioa.Schedule {
	steps := 0
	for cur := n; cur.parent != nil; cur = cur.parent {
		steps++
	}
	start := len(dst)
	dst = slices.Grow(dst, steps)[:start+steps]
	k := start + steps - 1
	for cur := n; cur.parent != nil; cur = cur.parent {
		dst[k] = cur.action
		k--
	}
	return dst
}

// search carries the per-run state shared by the level workers.
type search struct {
	sys    *core.System
	cfg    Config
	extSig ioa.Signature
	// comps caches Comp.Components() (which copies per call), and chans
	// caches the channel down-casts, so the per-state dedup loop does no
	// repeated interface work.
	comps []ioa.Automaton
	chans []*channel.Channel
	// dupOf[i] is the index of the previous pool input equal to Inputs[i],
	// or -1: the "first unused instance per distinct action" rule walks
	// this chain instead of building a per-node map.
	dupOf []int

	maxDepth  int
	maxStates int64
	digest    string // configuration digest binding checkpoints to this search
	seen      seenSet
	count     atomic.Int64 // distinct states admitted (start included)
	truncated atomic.Bool  // a fresh state was dropped for budget

	// arena selects the flat-slab frontier representation; usedStride is
	// the bit-packed used-bitmap width in words.
	arena      bool
	usedStride int

	// Reduction state (see reduction.go). sym is the EFFECTIVE symmetry
	// switch: Config.Symmetry gated on the protocol's PayloadOpaque claim
	// and on pairwise-distinct send_msg pool tokens. classOf collapses the
	// inputs-used bitmap: pool entries in the same class are
	// interchangeable under payload renaming, so only per-class counts
	// enter the canonical dedup key.
	sym        bool
	por        bool
	classOf    []int
	numClasses int
	// chanByDir and chanLose classify invisible channel actions for POR:
	// component index of the channel a delivery (by direction) or a loss
	// (by internal action name) belongs to.
	chanByDir map[ioa.Dir]int
	chanLose  map[string]int
	// Per-level reduction tallies, swapped out at each level barrier into
	// the obs counters and the explore.level trace event.
	levelRenames atomic.Int64
	levelPruned  atomic.Int64

	// ins holds the resolved observability handles (all nil when
	// Config.Metrics is nil — the zero-cost disabled mode); began is the
	// search start time for trace timestamps and progress rates;
	// spillPrev is observeSpill's last stats snapshot for counter deltas.
	ins       instruments
	began     time.Time
	spillPrev spillStats
}

// nodeView is the representation-independent read view of one frontier
// node: what expand and the dedup-key builder need, whether the node
// lives as a heap *node or as row i of an arena level.
type nodeView struct {
	state   ioa.State
	monitor Monitor
	used    []bool
	depth   int
	action  ioa.Action
}

// succ is one successor produced by expand: a value, not a node. The
// admitting side decides the representation — a heap node with a parent
// pointer (classic) or a slab row with a parent offset (arena) — and
// only for successors that survive dedup, so the expansion hot path
// allocates no per-successor objects in either mode.
type succ struct {
	state   ioa.State
	monitor Monitor
	action  ioa.Action
	// usedIdx is the pool input injected by action, or -1; the successor's
	// used bitmap is the parent's with this bit set, materialised only on
	// admission.
	usedIdx   int
	violation *Violation
}

// levelRef points at the current BFS level in either representation;
// exactly one field is set (arena wins as discriminator).
type levelRef struct {
	classic []*node
	arena   *arenaLevel
}

func (l levelRef) size() int {
	if l.arena != nil {
		return l.arena.size()
	}
	return len(l.classic)
}

func (l levelRef) depth() int {
	if l.arena != nil {
		return l.arena.depth
	}
	if len(l.classic) > 0 {
		return l.classic[0].depth
	}
	return 0
}

// view materialises node i; scratch is the caller's reused unpack buffer
// (used and returned only in arena mode).
func (l levelRef) view(i int, scratch []bool) (nodeView, []bool) {
	if l.arena != nil {
		a := l.arena
		scratch = a.unpackUsed(i, scratch)
		return nodeView{state: a.states[i], monitor: a.monitors[i], used: scratch, depth: a.depth, action: a.actions[i]}, scratch
	}
	n := l.classic[i]
	return nodeView{state: n.state, monitor: n.monitor, used: n.used, depth: n.depth, action: n.action}, scratch
}

// schedule reconstructs the schedule reaching node i (a fresh slice the
// caller owns).
func (l levelRef) schedule(i int) ioa.Schedule {
	return l.appendSchedule(nil, i)
}

// appendSchedule appends node i's schedule to dst (see appendTrace).
func (l levelRef) appendSchedule(dst ioa.Schedule, i int) ioa.Schedule {
	if l.arena != nil {
		return l.arena.appendTraceOf(dst, i)
	}
	return l.classic[i].appendTrace(dst)
}

// workerBufs is one worker's reused scratch: the dedup-key buffer, the
// expand successor buffer, and the worker's slice of the next frontier
// (next in classic mode, batch in arena mode). All persist across
// levels, so steady-state expansion allocates nothing per successor.
type workerBufs struct {
	key  []byte
	succ []succ
	next []*node
	// batch is the arena-mode admission slab (unused otherwise); usedView
	// is the arena-mode bitmap unpack scratch.
	batch    arenaBatch
	usedView []bool
	// canon is the worker's token-canonicalisation table (nil unless
	// symmetry reduction is active); classCnt is its per-class used-count
	// scratch. Both are reused across every key the worker builds.
	canon    *ioa.Canon
	classCnt []int
}

// foundViolation is a violation found while expanding a level, tagged with
// its (frontier index, successor index) so the earliest-in-frontier-order
// one can be preferred; with Workers == 1 that is exactly the violation a
// sequential scan finds first. The trace is reconstructed at the barrier
// as the parent's schedule plus the violating action.
type foundViolation struct {
	violation *Violation
	action    ioa.Action
	frontIdx  int
	succIdx   int
}

// BFS explores the system breadth-first from its start state. The returned
// trace (if any) is a shortest violating schedule within the explored
// space.
func BFS(sys *core.System, cfg Config) (*Result, error) {
	if cfg.Monitor == nil {
		return nil, ErrNoMonitor
	}
	if cfg.SpillDir != "" && cfg.ExactDedup {
		return nil, fmt.Errorf("%w: spill requires hashed dedup (run files hold fixed-width sums)", ErrSpillConfig)
	}
	s := &search{
		sys:      sys,
		cfg:      cfg,
		extSig:   sys.Hidden.Signature(),
		comps:    sys.Comp.Components(),
		maxDepth: cfg.MaxDepth,
		arena:    cfg.Arena,
	}
	if s.maxDepth <= 0 {
		s.maxDepth = DefaultMaxDepth
	}
	s.maxStates = int64(cfg.MaxStates)
	if s.maxStates <= 0 {
		s.maxStates = DefaultMaxStates
	}
	s.usedStride = (len(cfg.Inputs) + 63) / 64
	switch {
	case cfg.ExactDedup:
		s.seen = newExactSeen()
	case cfg.SpillDir != "":
		s.seen = newSpilledSeen(randomSeed(), cfg.SpillDir, cfg.SpillThreshold)
	default:
		h := newHashedSeen()
		if cfg.Checkpoint.enabled() {
			// Checkpoints call hashes() at every cadence barrier; run
			// tracking turns each call into an incremental tail merge
			// instead of a full re-sort of the set.
			h.trackRuns()
		}
		s.seen = h
	}
	// Spill run files are private to this search; drop them on any exit.
	defer func() {
		if sp, ok := s.seen.(*spilledSeen); ok {
			sp.close()
		}
	}()
	s.chans = make([]*channel.Channel, len(s.comps))
	for i, comp := range s.comps {
		if ch, ok := comp.(*channel.Channel); ok {
			s.chans[i] = ch
		}
	}
	s.dupOf = make([]int, len(cfg.Inputs))
	for i := range cfg.Inputs {
		s.dupOf[i] = -1
		for j := i - 1; j >= 0; j-- {
			if cfg.Inputs[j] == cfg.Inputs[i] {
				s.dupOf[i] = j
				break
			}
		}
	}
	s.setupReductions()

	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	bufs := make([]workerBufs, workers)
	if s.sym {
		for w := range bufs {
			bufs[w].canon = ioa.NewCanon()
		}
	}
	s.ins = newInstruments(cfg.Metrics, workers)
	s.began = time.Now() // lint:ignore determinism trace-only timestamp; never reaches Result

	start := &node{
		state:   sys.Comp.Start(),
		monitor: cfg.Monitor,
		used:    make([]bool, len(cfg.Inputs)),
	}
	digest, err := s.configDigest(start)
	if err != nil {
		return nil, err
	}
	s.digest = digest

	res := &Result{Exhausted: true}
	var cur levelRef
	if cfg.Resume != nil {
		nodes, err := s.restore(cfg.Resume)
		if err != nil {
			return nil, err
		}
		if s.arena {
			cur = levelRef{arena: newArenaFromNodes(nodes, cfg.Resume.Frontier, len(cfg.Inputs), s.usedStride)}
		} else {
			cur = levelRef{classic: nodes}
		}
		res.DepthReached = cfg.Resume.DepthReached
	} else {
		key, err := s.appendDedupKey(nil, start.state, start.monitor, start.used, -1, &bufs[0])
		if err != nil {
			return nil, err
		}
		s.seen.Add(key)
		s.count.Store(1)
		if s.arena {
			cur = levelRef{arena: newArenaRoot(start, len(cfg.Inputs), s.usedStride)}
		} else {
			cur = levelRef{classic: []*node{start}}
		}
	}
	ck := newCheckpointer(s, cfg.Checkpoint)
	var spare []*node
	for cur.size() > 0 {
		depth := cur.depth()
		res.DepthReached = depth
		if depth >= s.maxDepth {
			res.DepthLimited = true
			break
		}
		// Every earlier level is complete, so this count does not depend
		// on Workers; a violating search reports it (see
		// Result.StatesExplored).
		levelStart := s.count.Load()
		found, err := s.expandLevel(cur, bufs, workers)
		if err != nil {
			return nil, err
		}
		// Spill-mode disk errors are recorded during expansion and
		// surfaced here, before anything built on their answers escapes.
		if err := s.seenErr(); err != nil {
			return nil, err
		}
		admitted := 0
		for w := range bufs {
			admitted += len(bufs[w].next) + bufs[w].batch.size()
		}
		s.observeLevel(depth, cur.size(), admitted)
		s.observeSpill()
		if found != nil {
			res.Violation = found.violation
			res.Trace = append(cur.schedule(found.frontIdx), found.action)
			// The violating node sits one level below the frontier being
			// expanded; recording the frontier depth under-reported by one
			// and disagreed with len(res.Trace).
			res.DepthReached = depth + 1
			res.StatesExplored = int(min(levelStart, s.maxStates))
			res.Exhausted = false
			break
		}
		if s.arena {
			next := nextArenaLevel(cur.arena)
			for w := range bufs {
				next.absorb(&bufs[w].batch)
			}
			cur.arena.retire()
			cur = levelRef{arena: next}
		} else {
			frontier := promoteNext(spare, bufs)
			// The swapped-out slice's stale slots — and the worker copies
			// promoteNext already dropped — would otherwise pin the whole
			// expanded level (and its dead branches' parent chains) for
			// another level; ancestors of live nodes stay reachable through
			// the nodes' own parent pointers.
			spare = clearNodeSlice(cur.classic)
			cur = levelRef{classic: frontier}
		}
		// Level barrier: the frontier is a complete cut of the search, so
		// this is the one place a checkpoint is coherent and a stop is
		// resumable. A graceful stop forces a final checkpoint write.
		if stopRequested(cfg.Stop) {
			res.Interrupted = true
			if err := ck.maybeWrite(cur, res.DepthReached, true); err != nil {
				return nil, err
			}
			break
		}
		if err := ck.maybeWrite(cur, res.DepthReached, false); err != nil {
			return nil, err
		}
	}
	if res.Violation == nil {
		res.StatesExplored = int(min(s.count.Load(), s.maxStates))
	}
	res.Exhausted = res.Exhausted && !s.truncated.Load() && !res.Interrupted
	res.SeenSetBytes = s.seen.ApproxBytes()
	if sp, ok := s.seen.(*spilledSeen); ok {
		st := sp.stats()
		res.Spill = &SpillReport{
			Spills: st.Spills, Merges: st.Merges, Probes: st.Probes,
			Runs: st.Runs, SpilledSums: st.Spilled, DiskBytes: st.DiskBytes,
		}
	}
	s.observeDone(res)
	return res, nil
}

// promoteNext concatenates the workers' next buffers (in worker order,
// matching the arena barrier) into dst's storage and clears every stale
// *node the reused slices still hold — both dst's slack capacity and the
// worker buffers just copied out. Without the clears, dead nodes from
// wider earlier levels stay reachable through slice tails and pin their
// entire parent chains past their live window.
func promoteNext(dst []*node, bufs []workerBufs) []*node {
	dst = dst[:0]
	for w := range bufs {
		dst = append(dst, bufs[w].next...)
		bufs[w].next = clearNodeSlice(bufs[w].next)
	}
	clear(dst[len(dst):cap(dst)])
	return dst
}

// clearNodeSlice nils the slice's full capacity and returns it empty for
// reuse.
func clearNodeSlice(s []*node) []*node {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// seenErr surfaces the first disk error a spill-mode seen-set recorded
// (non-spill sets cannot fail).
func (s *search) seenErr() error {
	if sp, ok := s.seen.(*spilledSeen); ok {
		if err := sp.Err(); err != nil {
			return fmt.Errorf("explore: spill seen-set: %w", err)
		}
	}
	return nil
}

// stopRequested polls a graceful-stop channel without blocking.
func stopRequested(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// levelBatch is how many frontier nodes a worker claims per cursor bump:
// large enough to amortise the atomic, small enough to balance skewed
// expansion costs.
const levelBatch = 32

// expandLevel expands one BFS level with the configured worker pool. Each
// worker claims batches of frontier indices from an atomic cursor, builds
// dedup keys in its private reused buffer, and admits fresh successors to
// its private next slice (classic) or batch slab (arena); the caller
// concatenates those in worker order after the barrier. The first
// violation (in frontier order among those seen) or error cancels the
// level's context so the other workers stop early.
func (s *search) expandLevel(lvl levelRef, bufs []workerBufs, workers int) (*foundViolation, error) {
	if lvl.arena != nil && lvl.size() > math.MaxUint32 {
		return nil, fmt.Errorf("explore: level of %d nodes overflows 32-bit arena offsets", lvl.size())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var (
		cursor   atomic.Int64
		mu       sync.Mutex
		best     *foundViolation
		firstErr error
	)
	report := func(fv *foundViolation, err error) {
		mu.Lock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if fv != nil && (best == nil || fv.frontIdx < best.frontIdx ||
			(fv.frontIdx == best.frontIdx && fv.succIdx < best.succIdx)) {
			best = fv
		}
		mu.Unlock()
		cancel()
	}

	size := lvl.size()
	work := func(w int) {
		b := &bufs[w]
		b.next = b.next[:0]
		for ctx.Err() == nil {
			i := int(cursor.Add(levelBatch)) - levelBatch
			if i >= size {
				return
			}
			end := min(i+levelBatch, size)
			for ; i < end; i++ {
				if ctx.Err() != nil {
					return
				}
				var view nodeView
				view, b.usedView = lvl.view(i, b.usedView)
				sl, err := s.expand(view, b.succ[:0])
				b.succ = sl
				if err != nil {
					report(nil, err)
					return
				}
				s.ins.workers[w].Inc()
				s.ins.expanded.Inc()
				s.ins.fanout.Observe(int64(len(sl)))
				if s.por {
					s.ins.ampleSize.Observe(int64(len(sl)))
				}
				for j := range sl {
					sj := &sl[j]
					if sj.violation != nil {
						report(&foundViolation{
							violation: sj.violation, action: sj.action,
							frontIdx: i, succIdx: j,
						}, nil)
						return
					}
					var renames0 int64
					if b.canon != nil {
						renames0 = b.canon.Assigned()
					}
					b.key, err = s.appendDedupKey(b.key[:0], sj.state, sj.monitor, view.used, sj.usedIdx, b)
					if err != nil {
						report(nil, err)
						return
					}
					if b.canon != nil {
						s.levelRenames.Add(b.canon.Assigned() - renames0)
					}
					if !s.seen.Add(b.key) {
						s.ins.dedupHit.Inc()
						continue
					}
					s.ins.dedupMiss.Inc()
					if s.count.Add(1) > s.maxStates {
						s.truncated.Store(true)
						continue
					}
					s.ins.admitted.Inc()
					if lvl.arena != nil {
						b.batch.add(lvl.arena, i, sj)
						continue
					}
					parent := lvl.classic[i]
					used := parent.used
					if sj.usedIdx >= 0 {
						used = append([]bool(nil), parent.used...)
						used[sj.usedIdx] = true
					}
					b.next = append(b.next, &node{
						state: sj.state, monitor: sj.monitor, used: used,
						depth: view.depth + 1, parent: parent, action: sj.action,
					})
				}
			}
		}
	}

	if workers == 1 || size <= 1 {
		for w := 1; w < workers; w++ {
			bufs[w].next = bufs[w].next[:0]
		}
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
	}
	mu.Lock()
	defer mu.Unlock()
	return best, firstErr
}

// appendDedupKey appends the key identifying nodes with indistinguishable
// futures: the protocol automata contribute their exact state, the
// channels only their residual (deliverable packets — delivered, lost and
// FIFO-blocked entries can never matter again, and packet IDs are analysis
// labels), plus the monitor state and the set of remaining inputs (the
// parent's used bitmap with extraIdx set, passed unmaterialised so dedup
// probes copy nothing). Merging on this key is sound because the monitor
// never inspects packet identities. The key is built through the
// AppendFingerprint fast paths into the caller's reused buffer; per
// explored state the dedup path allocates nothing beyond amortised buffer
// growth.
//
// When symmetry reduction is active (b != nil with a canon), the key is
// built through the canonical fingerprint paths instead: payload tokens
// and packet IDs become first-use indices shared across all components,
// and the inputs-used bitmap collapses to per-class counts. Equal
// canonical keys then certify a bijective token renaming between the two
// nodes — an automorphism for payload-opaque protocols — so the merge
// stays sound (see reduction.go). b == nil always takes the raw path.
func (s *search) appendDedupKey(dst []byte, state ioa.State, monitor Monitor, used []bool, extraIdx int, b *workerBufs) ([]byte, error) {
	cs, ok := state.(ioa.CompositeState)
	if !ok {
		return nil, fmt.Errorf("%w: want CompositeState, got %T", ioa.ErrBadState, state)
	}
	var canon *ioa.Canon
	if b != nil {
		canon = b.canon
	}
	if canon != nil {
		canon.Reset()
	}
	for i := range s.comps {
		if i > 0 {
			dst = append(dst, "∥"...)
		}
		if ch := s.chans[i]; ch != nil {
			var err error
			if canon != nil {
				dst, err = ch.AppendResidualCanon(dst, cs.Parts[i], canon)
			} else {
				dst, err = ch.AppendResidual(dst, cs.Parts[i])
			}
			if err != nil {
				return nil, err
			}
			continue
		}
		if canon != nil {
			dst = ioa.AppendCanonFingerprint(dst, cs.Parts[i], canon)
		} else {
			dst = ioa.AppendFingerprint(dst, cs.Parts[i])
		}
	}
	dst = append(dst, '|')
	if cf, ok := monitor.(ioa.CanonFingerprinter); ok && canon != nil {
		dst = cf.AppendCanonFingerprint(dst, canon)
	} else if af, ok := monitor.(ioa.AppendFingerprinter); ok {
		dst = af.AppendFingerprint(dst)
	} else {
		dst = append(dst, monitor.Fingerprint()...)
	}
	dst = append(dst, '|')
	if canon != nil {
		dst = s.appendUsedClassCounts(dst, used, extraIdx, b)
		return dst, nil
	}
	for i, u := range used {
		if u || i == extraIdx {
			dst = append(dst, '1')
		} else {
			dst = append(dst, '0')
		}
	}
	return dst, nil
}

// expand appends all successors of a node view to out: every eligible
// pool input (the first unused instance of each distinct action) and
// every eligible enabled locally-controlled action. Successors are
// values; out's backing array is the caller's reused buffer, and no node
// or bitmap is materialised here — that happens on admission, in the
// caller's chosen representation.
//
// Packet IDs are assigned canonically as the per-channel send index
// ((PL2)'s uniqueness is per channel direction): structurally identical
// states then have identical fingerprints regardless of the path taken,
// which is what makes state deduplication effective — and sound, since
// the IDs carry no information a protocol may use.
func (s *search) expand(cur nodeView, out []succ) ([]succ, error) {
	enabled := s.sys.Comp.Enabled(cur.state)
	if need := len(s.cfg.Inputs) + len(enabled); cap(out) < need {
		out = make([]succ, 0, need)
	}
	apply := func(a ioa.Action, usedIdx int) error {
		if a.Kind == ioa.KindSendPkt && a.Pkt.ID == 0 {
			cs, err := s.sys.ChannelState(cur.state, a.Dir)
			if err != nil {
				return err
			}
			a.Pkt.ID = uint64(cs.SentCount() + 1)
		}
		st, err := s.sys.Comp.Step(cur.state, a)
		if err != nil {
			return fmt.Errorf("explore: applying %s: %w", a, err)
		}
		mon := cur.monitor
		var viol *Violation
		if s.extSig.ContainsExternal(a) {
			mon, viol = mon.Step(a)
		}
		out = append(out, succ{state: st, monitor: mon, action: a, usedIdx: usedIdx, violation: viol})
		return nil
	}

	// Environment inputs: one successor per distinct unused pool action.
	// Pool index i is eligible when it is the first unused instance of its
	// action, i.e. every earlier duplicate (the dupOf chain) is used.
	for i, in := range s.cfg.Inputs {
		if cur.used[i] {
			continue
		}
		eligible := true
		for j := s.dupOf[i]; j >= 0; j = s.dupOf[j] {
			if !cur.used[j] {
				eligible = false
				break
			}
		}
		if !eligible {
			continue
		}
		if err := apply(in, i); err != nil {
			return out, err
		}
	}

	// Locally-controlled actions.
	pruned := int64(0)
	for _, a := range enabled {
		if channel.IsLoseAction(a) && !s.cfg.AllowLoss {
			continue
		}
		if s.cfg.MaxInTransit > 0 && a.Kind == ioa.KindSendPkt {
			cs, err := s.sys.ChannelState(cur.state, a.Dir)
			if err != nil {
				return out, err
			}
			if cs.PendingCount() >= s.cfg.MaxInTransit {
				continue
			}
		}
		if s.por && s.porSuppressed(cur.action, a) {
			pruned++
			continue
		}
		if err := apply(a, -1); err != nil {
			return out, err
		}
	}
	if pruned > 0 {
		s.levelPruned.Add(pruned)
	}
	return out, nil
}
