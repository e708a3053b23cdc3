// Package fanout executes the parallel block fan-out method (§2.3) for
// real, with two engines sharing one precomputed schedule:
//
//   - ModeWorkStealing (default): per-worker LIFO deques of ready block
//     operations with randomized stealing, driven by atomic ready counters
//     derived from the same dependence structure. Ownership stops pinning
//     work to goroutines, so an oversized block (irregular partitions
//     produce them on purpose) never starves a worker. See steal.go.
//   - ModeSPMD: the paper-faithful engine — one goroutine per (virtual)
//     processor with buffered channels as the message fabric. The method is
//     entirely data-driven, as in the paper: a processor acts on received
//     blocks in arrival order, performs every block operation whose
//     destination it owns as soon as the operands are available, and fans a
//     completed block out to the processors that need it.
//
// Within this shared-memory emulation a "message" carries only the block
// id; the numeric payload lives in the shared numeric.Factor, which is safe
// because a block's data is written exclusively by its owner before the
// completion message is sent (the channel send/receive provides the
// happens-before edge), and is read-only afterwards.
//
// An Executor owns every piece of mutable run state — modification
// counters, arrival bitsets, work stacks, BMOD workspaces, and the message
// channels — preallocated once and reset between runs, so repeated
// factorizations over the same schedule (the refactorization serving
// pattern: reload values, factor again) perform no per-run setup
// allocation beyond goroutine startup.
package fanout

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"blockfanout/internal/kernels"
	"blockfanout/internal/numeric"
	"blockfanout/internal/obs"
	"blockfanout/internal/sched"
)

// Stats reports what the parallel run did.
type Stats struct {
	Messages int64 // remote block transfers
	Bytes    int64 // remote bytes moved
	Procs    int
	// Flops and Steals are tracked by the work-stealing engine only
	// (zero in SPMD mode): flops of the block operations this executor
	// ran, and successful deque thefts.
	Flops  int64
	Steals int64
}

// Run factors f in parallel according to the program's assignment. It
// returns factorization statistics, or the first error encountered (e.g. a
// non-positive-definite pivot). One-shot convenience over NewExecutor.
func Run(f *numeric.Factor, pr *sched.Program) (Stats, error) {
	return NewExecutor(f, pr).Run()
}

// Mode selects the execution engine.
type Mode uint8

const (
	// ModeWorkStealing (the default) runs the schedule on per-worker LIFO
	// deques with randomized stealing: any worker may execute any ready
	// block op, so an oversized block never starves a processor. See
	// steal.go.
	ModeWorkStealing Mode = iota
	// ModeSPMD is the paper-faithful engine: one goroutine per virtual
	// processor, each executing exactly the ops of the blocks it owns,
	// with channels as the message fabric. It remains selectable as the
	// baseline the benchmarks compare work stealing against (and as the
	// engine whose message counts the simulator mirrors exactly).
	ModeSPMD
)

func (m Mode) String() string {
	switch m {
	case ModeWorkStealing:
		return "steal"
	case ModeSPMD:
		return "spmd"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode converts a flag value ("steal" or "spmd") to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "steal", "":
		return ModeWorkStealing, nil
	case "spmd":
		return ModeSPMD, nil
	}
	return 0, fmt.Errorf("fanout: unknown executor mode %q (want steal or spmd)", s)
}

// Executor is a reusable parallel factorization engine bound to one factor
// and one schedule. It is not safe for concurrent use; a Run must finish
// before the next begins.
type Executor struct {
	f    *numeric.Factor
	pr   *sched.Program
	mode Mode

	// SPMD state (nil in work-stealing mode).
	modsLeft  []int32
	diagReady []bool
	done      []bool
	inboxes   []chan int32
	procs     []procState

	// Work-stealing state (nil in SPMD mode); see steal.go.
	pairs      *sched.PairTable
	srcInit    []int32 // pairing → initial source count (2, or 1 when A==B)
	srcLeft    []int32 // pairing → remaining sources (atomic)
	finInit    []int32 // block → initial NMods (+1 diag arrival if off-diag)
	finLeft    []int32 // block → remaining prerequisites (atomic)
	slots      []int32 // ready-pairing queue slots, segmented by DestBase
	slotHead   []int32 // block → published ready pairings (atomic)
	slotDone   []int32 // block → executed pairings (claim-holder private)
	active     []int32 // block → activation claim flag (atomic CAS)
	seeds      [][]int32
	workers    []wsWorker
	blocksLeft atomic.Int32
	doneCh     chan struct{}
	doneOnce   sync.Once
	sleepers   atomic.Int32
	parkCh     chan struct{}

	// Restricted-mode state (nil/unused otherwise); see steal.go.
	restrict  *Restriction
	execMask  []bool     // block id → this executor runs the block's ops
	execCount int32      // number of true entries in execMask
	extCh     chan int32 // externally completed block arrivals (Inject)

	// rec, when non-nil and enabled, records one obs.Span per block
	// operation. A nil or disabled recorder costs one pointer check plus
	// one atomic load per operation and never allocates.
	rec *obs.Recorder

	// Per-run control state, reset by Run.
	abort     chan struct{}
	abortOnce sync.Once
	errMu     sync.Mutex
	firstErr  error
}

// procState is the preallocated per-processor working set.
type procState struct {
	ex        *Executor
	me        int32
	arrived   []uint64 // bitset over block ids
	local     []int32  // owned-work stack
	ws        numeric.Workspace
	remaining int
	failed    bool
}

// NewExecutor preallocates all run state for factoring f under pr in the
// default work-stealing mode. The factor may be reloaded with new values
// (numeric.Factor.Reload) between runs; the schedule is fixed.
func NewExecutor(f *numeric.Factor, pr *sched.Program) *Executor {
	return NewExecutorMode(f, pr, ModeWorkStealing)
}

// NewExecutorMode preallocates all run state for the chosen engine.
func NewExecutorMode(f *numeric.Factor, pr *sched.Program, mode Mode) *Executor {
	ex := &Executor{f: f, pr: pr, mode: mode}
	if mode == ModeSPMD {
		ex.initSPMD()
	} else {
		ex.initSteal()
	}
	return ex
}

// Restriction confines a work-stealing executor to a subset of the
// schedule's blocks — the execution model of one cluster node, which owns a
// slice of the block-to-processor mapping and learns of remote completions
// over the network (Inject) instead of from sibling workers.
type Restriction struct {
	// Local marks the blocks whose operations this executor performs. A nil
	// slice means all blocks (useful for throttled single-node runs).
	Local []bool
	// Predone marks blocks whose final data is already present in the
	// factor at run start (retained from a previous failover epoch, or
	// received before the restart). They are not executed; their completion
	// is propagated into the dependence counters when the run begins.
	Predone []bool
	// OnComplete, when non-nil, is called from a worker goroutine after
	// each locally executed block's data is final — the node's fan-out
	// hook. It must not block for long; ship through buffered channels.
	OnComplete func(id int32)
	// Workers is the goroutine pool size; 0 means GOMAXPROCS.
	Workers int
	// FlopsPerSec, when positive, paces each worker to the given aggregate
	// flop rate divided evenly across workers — the knob heterogeneity
	// benchmarks use to make a node measurably slow.
	FlopsPerSec float64
}

// executes reports whether this executor performs block id's operations.
func (r *Restriction) executes(id int32) bool {
	if r.Predone != nil && r.Predone[id] {
		return false
	}
	return r.Local == nil || r.Local[id]
}

// NewExecutorRestricted preallocates a work-stealing executor confined to
// the restriction. A restricted executor is single-run: build a fresh one
// per failover epoch (the restriction is fixed, and arrivals injected
// before the run starts are queued, not discarded — so a stale executor
// must never be rerun).
func NewExecutorRestricted(f *numeric.Factor, pr *sched.Program, r *Restriction) *Executor {
	ex := &Executor{f: f, pr: pr, mode: ModeWorkStealing, restrict: r}
	ex.initSteal()
	return ex
}

// Inject delivers an externally completed block (its data already written
// into the factor) to a running restricted executor. Each block must be
// injected at most once per run, and never a block the restriction marks
// local or predone. Inject never blocks: the arrival channel holds one slot
// per block.
func (ex *Executor) Inject(id int32) {
	ex.extCh <- id
	if ex.sleepers.Load() > 0 {
		select {
		case ex.parkCh <- struct{}{}:
		default:
		}
	}
}

func (ex *Executor) initSPMD() {
	pr := ex.pr
	np := pr.NProc
	ex.modsLeft = make([]int32, pr.NBlocks)
	ex.diagReady = make([]bool, pr.NBlocks)
	ex.done = make([]bool, pr.NBlocks)
	ex.inboxes = make([]chan int32, np)
	ex.procs = make([]procState, np)
	maxRows := ex.f.MaxBlockRows()
	for p := 0; p < np; p++ {
		ex.inboxes[p] = make(chan int32, pr.IncomingRemote[p]+1)
		ps := &ex.procs[p]
		ps.ex = ex
		ps.me = int32(p)
		ps.arrived = make([]uint64, (pr.NBlocks+63)/64)
		ps.local = make([]int32, 0, pr.OwnedCount[p])
		ps.ws.Reserve(maxRows)
	}
}

// SetRecorder attaches (or, with nil, detaches) a span recorder. The
// recorder needs one lane per processor; attach between runs, not during
// one. Enabling/disabling the attached recorder is safe at any time — the
// gate is a single atomic flag read on the hot path.
func (ex *Executor) SetRecorder(rec *obs.Recorder) {
	if rec != nil && rec.Procs() < ex.lanes() {
		panic(fmt.Sprintf("fanout: recorder has %d lanes for %d processors", rec.Procs(), ex.lanes()))
	}
	ex.rec = rec
}

// lanes is the recorder lane count: one per executing goroutine, which in
// work-stealing mode is the worker pool (restricted executors may run fewer
// workers than the schedule has virtual processors).
func (ex *Executor) lanes() int {
	if ex.mode == ModeSPMD {
		return ex.pr.NProc
	}
	return len(ex.workers)
}

// NewRecorder creates, attaches, and returns a recorder sized for this
// executor: one lane per executing goroutine, capacity hinted by the
// per-lane block-operation count. The recorder starts disabled.
func (ex *Executor) NewRecorder() *obs.Recorder {
	n := ex.lanes()
	per := 3 * ex.pr.NBlocks / n
	rec := obs.NewRecorder(n, per)
	ex.SetRecorder(rec)
	return rec
}

// NewMeasureRecorder creates, attaches, and returns a recorder sized so a
// complete factorization cannot overflow any lane: per-lane capacity covers
// every block operation in the schedule (one BFAC/BDIV per block plus one
// BMOD per modification), because under work stealing any single worker
// may end up executing an arbitrary share of them. Recorder.Dropped() == 0
// is therefore guaranteed for the compute spans, so per-layer timings built
// from a recording cover the whole factorization. The per-span cost is
// the same two clock reads and one in-place array write as NewRecorder
// (no allocation once sized), so it is cheap enough to leave on for a
// whole production factorization; the price is memory, O(lanes × ops)
// spans instead of NewRecorder's O(ops).
func (ex *Executor) NewMeasureRecorder() *obs.Recorder {
	n := ex.lanes()
	per := ex.pr.NBlocks + len(ex.pr.ModDest)
	if ex.mode != ModeSPMD {
		// Work stealing also records one OpSteal per stolen task (at most
		// one per block activation) and OpIdle spans for parks; pad for
		// both so bookkeeping spans cannot evict compute spans either.
		per += ex.pr.NBlocks + 1024
	}
	rec := obs.NewRecorder(n, per)
	ex.SetRecorder(rec)
	return rec
}

// fail records a failure and broadcasts cancellation to the remaining
// processors. Errors are ranked, not first-come: a numerical breakdown
// (*kernels.PivotError) beats any infrastructure or cancellation error, and
// among breakdowns the lowest (Block, Row) wins, so the reported pivot is
// independent of which goroutine lost the race to report it.
func (ex *Executor) fail(err error) {
	ex.errMu.Lock()
	if betterErr(err, ex.firstErr) {
		ex.firstErr = err
	}
	ex.errMu.Unlock()
	ex.abortOnce.Do(func() { close(ex.abort) })
}

func betterErr(candidate, incumbent error) bool {
	if incumbent == nil {
		return true
	}
	var cp, ip *kernels.PivotError
	cPiv := errors.As(candidate, &cp)
	iPiv := errors.As(incumbent, &ip)
	switch {
	case cPiv && !iPiv:
		return true
	case !cPiv:
		return false
	case cp.Block != ip.Block:
		return cp.Block < ip.Block
	default:
		return cp.Row < ip.Row
	}
}

// aborted is the non-blocking abort poll inserted between block operations,
// bounding both cancellation latency and wasted work after a breakdown to a
// single block operation.
func (ps *procState) aborted() bool {
	select {
	case <-ps.ex.abort:
		return true
	default:
		return false
	}
}

// reset restores the executor to its pre-run state: counters reloaded from
// the schedule, bitsets and stacks cleared, channels drained of any
// messages stranded by an aborted previous run.
func (ex *Executor) reset() {
	if ex.mode == ModeSPMD {
		copy(ex.modsLeft, ex.pr.NMods)
		for i := range ex.done {
			ex.done[i] = false
			ex.diagReady[i] = false
		}
		for p := range ex.procs {
			ps := &ex.procs[p]
			for i := range ps.arrived {
				ps.arrived[i] = 0
			}
			ps.local = ps.local[:0]
			ps.remaining = ex.pr.OwnedCount[p]
			ps.failed = false
		}
		ex.drainInboxes()
	} else {
		ex.resetSteal()
	}
	ex.abort = make(chan struct{})
	ex.abortOnce = sync.Once{}
	ex.firstErr = nil
}

// drainInboxes discards messages stranded by an aborted run. Sends never
// block (each inbox is sized for its total remote traffic), so draining is
// a hygiene step, not a deadlock-avoidance one: it keeps a failed run from
// leaking stale block ids into the executor's next use.
func (ex *Executor) drainInboxes() {
	for p := range ex.inboxes {
	drain:
		for {
			select {
			case <-ex.inboxes[p]:
			default:
				break drain
			}
		}
	}
}

// Run executes one parallel factorization.
func (ex *Executor) Run() (Stats, error) {
	return ex.RunContext(context.Background())
}

// RunContext executes one parallel factorization, aborting early (with
// ctx.Err()) if the context is cancelled. A cancelled run leaves the factor
// numerically incomplete; Reload before the next Run restores it.
func (ex *Executor) RunContext(ctx context.Context) (Stats, error) {
	ex.reset()
	stopWatcher := func() {}
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		watcherExit := make(chan struct{})
		go func() {
			defer close(watcherExit)
			select {
			case <-done:
				ex.fail(ctx.Err())
			case <-stop:
			case <-ex.abort:
			}
		}()
		stopWatcher = func() {
			close(stop)
			<-watcherExit
		}
	}
	// Propagate retained completions through the normal arrival path before
	// any worker starts: predone blocks behave exactly like injected remote
	// completions, so the failover restart needs no special counter surgery.
	if ex.restrict != nil && ex.restrict.Predone != nil {
		for id, pd := range ex.restrict.Predone {
			if pd {
				ex.extCh <- int32(id)
			}
		}
	}
	var wg sync.WaitGroup
	if ex.mode == ModeSPMD {
		wg.Add(len(ex.procs))
		for p := range ex.procs {
			ps := &ex.procs[p]
			go func() {
				defer wg.Done()
				ps.run()
			}()
		}
	} else {
		wg.Add(len(ex.workers))
		for p := range ex.workers {
			w := &ex.workers[p]
			go func() {
				defer wg.Done()
				w.run()
			}()
		}
	}
	wg.Wait()
	// Join the watcher before reading firstErr: a straggling fail() from a
	// cancellation landing right at completion would otherwise race this
	// read (and a later reset()'s reinstall of abortOnce).
	stopWatcher()
	st := Stats{Messages: ex.pr.TotalMessages, Bytes: ex.pr.TotalBytes, Procs: ex.pr.NProc}
	for p := range ex.workers {
		st.Flops += ex.workers[p].flops
		st.Steals += ex.workers[p].steals
	}
	if ex.firstErr != nil {
		ex.drainInboxes()
		return Stats{}, ex.firstErr
	}
	return st, nil
}

// run is the SPMD body executed by every processor.
func (ps *procState) run() {
	if ps.remaining == 0 {
		return
	}
	ex := ps.ex
	pr := ex.pr

	// Seed: owned diagonal blocks with no pending modifications can be
	// factored immediately. Deliberately no abort poll here: every
	// processor always attempts all of its seed BFACs (stopping only at its
	// own first failure), so a breakdown in an unmodified diagonal block is
	// detected on every run regardless of interleaving, and the ranked
	// fail() then reports the lowest such (Block, Row) deterministically.
	for j := range pr.BS.Cols {
		id := pr.BlockID(j, 0)
		if pr.Owner[id] == ps.me && pr.NMods[id] == 0 {
			ps.finish(id)
			if ps.failed {
				return
			}
		}
	}

	for ps.remaining > 0 && !ps.failed {
		if ps.aborted() {
			return
		}
		var id int32
		if n := len(ps.local); n > 0 {
			id = ps.local[n-1]
			ps.local = ps.local[:n-1]
		} else {
			select {
			case id = <-ex.inboxes[ps.me]:
			case <-ex.abort:
				return
			}
		}
		ps.handle(id)
	}
	if ps.failed {
		return
	}
	if ps.remaining != 0 {
		ex.fail(fmt.Errorf("fanout: processor %d stalled with %d blocks unfinished", ps.me, ps.remaining))
	}
}

// complete marks an owned block finished and fans it out.
func (ps *procState) complete(id int32) {
	ex := ps.ex
	ex.done[id] = true
	ps.remaining--
	for _, c := range ex.pr.Consumers[id] {
		if c == ps.me {
			ps.local = append(ps.local, id)
		} else {
			ex.inboxes[c] <- id
		}
	}
}

// finish runs a block's own completing operation (BFAC or BDIV) once its
// modifications are done (and, for off-diagonal blocks, its diagonal block
// has arrived).
func (ps *procState) finish(id int32) {
	ex := ps.ex
	k := int(ex.pr.ColOf[id])
	idx := int(ex.pr.IdxOf[id])
	t0 := ex.rec.Start()
	if idx == 0 {
		if err := ex.f.BFAC(k); err != nil {
			ex.fail(err)
			ps.failed = true
			return
		}
		ex.rec.Record(ps.me, obs.OpBFAC, id, -1, t0)
	} else {
		if err := ex.f.BDIV(k, idx); err != nil {
			ex.fail(err)
			ps.failed = true
			return
		}
		ex.rec.Record(ps.me, obs.OpBDIV, id, -1, t0)
	}
	ps.complete(id)
}

// execMod performs BMOD with column-k sources at block indices a and b
// (unordered) and decrements the destination's counter. Blocks within a
// column are sorted by block row, so the larger index is the I side, and
// the destination id comes from the precomputed pairing table.
func (ps *procState) execMod(k, a, b int) {
	ex := ps.ex
	if a < b {
		a, b = b, a
	}
	t0 := ex.rec.Start()
	if err := ex.f.BMOD(k, a, b, &ps.ws); err != nil {
		ex.fail(err)
		ps.failed = true
		return
	}
	dest := ex.pr.ModDestID(k, a, b)
	ex.rec.Record(ps.me, obs.OpBMOD, dest, ex.pr.BlockID(k, a), t0)
	ex.modsLeft[dest]--
	if ex.modsLeft[dest] == 0 && !ex.done[dest] {
		if ex.pr.IdxOf[dest] == 0 || ex.diagReady[dest] {
			ps.finish(dest)
		}
	}
}

// handle processes one arriving completed block.
func (ps *procState) handle(id int32) {
	if ps.arrived[id>>6]&(1<<(uint(id)&63)) != 0 {
		return
	}
	ps.arrived[id>>6] |= 1 << (uint(id) & 63)
	ex := ps.ex
	pr := ex.pr
	k := int(pr.ColOf[id])
	idx := int(pr.IdxOf[id])
	colK := &pr.BS.Cols[k]
	if idx == 0 {
		// Factored diagonal block: enables BDIV of owned off-diagonal
		// blocks in column k whose mods are done.
		for j := 1; j < len(colK.Blocks); j++ {
			bid := pr.BlockID(k, j)
			if pr.Owner[bid] != ps.me {
				continue
			}
			ex.diagReady[bid] = true
			if ex.modsLeft[bid] == 0 && !ex.done[bid] {
				ps.finish(bid)
				if ps.failed || ps.aborted() {
					return
				}
			}
		}
		return
	}
	// Completed off-diagonal block: pair with every available block of its
	// column whose pairing destination this processor owns.
	for j := 1; j < len(colK.Blocks); j++ {
		other := pr.BlockID(k, j)
		if ps.me != pr.Owner[pr.ModDestID(k, idx, j)] {
			continue
		}
		if other == id || ps.arrived[other>>6]&(1<<(uint(other)&63)) != 0 {
			ps.execMod(k, idx, j)
			if ps.failed || ps.aborted() {
				return
			}
		}
	}
}
