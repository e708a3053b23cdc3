package fanout

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blockfanout/internal/numeric"
	"blockfanout/internal/obs"
)

// The work-stealing engine replaces ownership-pinned execution with a pool
// of workers draining ready block operations from per-worker LIFO deques
// (Chase–Lev), stealing from a random victim's tail when their own deque
// runs dry.
//
// Readiness is tracked with atomic countdown counters instead of the SPMD
// engine's per-processor arrival bitsets — counters are the multi-consumer
// form of the same information (an arrival flips a bit there, decrements a
// counter here), and decrement-to-zero gives an exactly-once handoff:
//
//   - srcLeft[p], one per BMOD pairing, starts at the pairing's source
//     count (2, or 1 when both sources are the same block). The completion
//     of each source block decrements it; whoever reaches zero publishes
//     the pairing to its destination's ready queue.
//   - finLeft[id], one per block, starts at NMods (+1 for off-diagonal
//     blocks, whose BDIV also awaits the column's factored diagonal).
//     Each executed BMOD into the block — and, for off-diagonal blocks,
//     the diagonal's completion — decrements it; whoever reaches zero runs
//     the block's own completing operation (BFAC or BDIV) inline.
//
// BMODs into one destination must be serialized (they read-modify-write
// the same block), so the unit of scheduling in the deques is a block
// *activation*, not a single op: ready pairings are appended to a
// per-destination queue (slots/slotHead/slotDone), and a CAS on active[id]
// elects at most one live activation per destination, which drains the
// queue and re-checks after release. At most one activation per block also
// bounds total deque occupancy by NBlocks, letting the fixed-capacity
// deques never overflow.
//
// Memory ordering: every block's data is written before the atomic
// decrement that announces it and read only after observing the resulting
// count, so the sync/atomic happens-before edges make the numeric payload
// race-free without any additional locking.
//
// Domain tasks: when the schedule has §2.3 domains (sched.Program.DomOwner)
// and the executor is unrestricted, each worker first factors the domain
// panels it owns as direct calls, in column order, with no counters,
// queues or deques (runDomains). Every BMOD into a domain panel has its
// sources in an earlier panel of the same domain, so column order is a
// valid order and these pairings never enter srcLeft or the slot queues.
// Pairings from a domain column into the root are published to their
// destination queues as soon as the column is final. The many tiny
// operations of the domains thus cost roughly their flops. The root keeps
// per-op scheduling, and so do restricted executors: they hand every
// completed block to the node's fan-out and may start from predone
// blocks, and their workers own no domain.
//
// The deterministic first-error contract is preserved exactly as in SPMD
// mode: every worker always attempts all of its domain operations and seed
// BFACs (stopping at its own first failure, or at the run's cancellation,
// never at a peer's failure) before entering the scheduling loop, and
// fail() ranks errors so the lowest (Block, Row) breakdown wins.

// wsWorker is one worker of the stealing pool.
type wsWorker struct {
	ex     *Executor
	me     int32
	failed bool
	rng    uint64
	dq     deque
	ws     numeric.Workspace

	flops  int64 // flops of block ops this worker executed
	steals int64 // successful thefts
	// Pacing state for Restriction.FlopsPerSec (rate is this worker's
	// share; zero disables pacing).
	rate  float64
	start time.Time
}

// pace accounts fl executed flops and, under a rate restriction, sleeps
// this worker until its cumulative flop count is back under rate·elapsed.
func (w *wsWorker) pace(fl int64) {
	w.flops += fl
	if w.rate <= 0 {
		return
	}
	target := time.Duration(float64(w.flops) / w.rate * 1e9)
	if el := time.Since(w.start); el < target {
		time.Sleep(target - el)
	}
}

// initSteal builds the work-stealing state: countdown templates, the
// per-destination ready-queue storage, seed lists, and one deque-equipped
// worker per virtual processor.
func (ex *Executor) initSteal() {
	pr := ex.pr
	np := pr.NProc
	ex.pairs = pr.Pairs()
	total := len(pr.ModDest)
	ex.srcInit = make([]int32, total)
	ex.srcLeft = make([]int32, total)
	ex.slots = make([]int32, total)
	pt := ex.pairs
	for p := 0; p < total; p++ {
		if pt.A[p] == pt.B[p] {
			ex.srcInit[p] = 1
		} else {
			ex.srcInit[p] = 2
		}
	}
	// Domain tasks, unless restricted. Each domain panel is listed under
	// its owner, in column order.
	if pr.DomOwner != nil && ex.restrict == nil {
		ex.domCols = make([][]int32, np)
		for j, p := range pr.DomOwner {
			if p >= int32(np) {
				ex.domCols = nil
				break
			}
			if p >= 0 {
				ex.domCols[p] = append(ex.domCols[p], int32(j))
			}
		}
	}
	ex.finInit = make([]int32, pr.NBlocks)
	ex.finLeft = make([]int32, pr.NBlocks)
	ex.slotHead = make([]int32, pr.NBlocks)
	ex.slotDone = make([]int32, pr.NBlocks)
	ex.active = make([]int32, pr.NBlocks)
	for id := 0; id < pr.NBlocks; id++ {
		ex.finInit[id] = pr.NMods[id]
		if pr.IdxOf[id] != 0 {
			ex.finInit[id]++ // the column's factored diagonal block
		}
	}
	// A restriction shrinks the worker pool (a node runs one pool per
	// machine, not one per virtual processor), confines execution to the
	// mask, and opens the external-arrival channel.
	if r := ex.restrict; r != nil {
		np = r.Workers
		if np <= 0 {
			np = runtime.GOMAXPROCS(0)
		}
		ex.execMask = make([]bool, pr.NBlocks)
		for id := int32(0); id < int32(pr.NBlocks); id++ {
			if r.executes(id) {
				ex.execMask[id] = true
				ex.execCount++
			}
		}
		ex.extCh = make(chan int32, pr.NBlocks)
	}

	// Seeds: diagonal blocks with no pending modifications, grouped by
	// owner so the deterministic-error contract matches SPMD mode; domain
	// tasks cover those of domain panels. A restricted executor seeds only
	// the blocks it executes, spread round-robin (its workers have no
	// ownership identity).
	ex.seeds = make([][]int32, np)
	rr := 0
	for j := range pr.BS.Cols {
		id := pr.BlockID(j, 0)
		if pr.NMods[id] != 0 || ex.domCols != nil && pr.DomOwner[j] >= 0 {
			continue
		}
		if ex.restrict != nil {
			if ex.execMask[id] {
				ex.seeds[rr%np] = append(ex.seeds[rr%np], id)
				rr++
			}
		} else {
			ex.seeds[pr.Owner[id]] = append(ex.seeds[pr.Owner[id]], id)
		}
	}
	capPow2 := 1
	for capPow2 < pr.NBlocks {
		capPow2 <<= 1
	}
	ex.workers = make([]wsWorker, np)
	maxRows := ex.f.MaxBlockRows()
	for p := 0; p < np; p++ {
		w := &ex.workers[p]
		w.ex = ex
		w.me = int32(p)
		w.rng = splitmix64(uint64(p))
		w.dq.buf = make([]int32, capPow2)
		w.dq.mask = int64(capPow2 - 1)
		w.ws.Reserve(maxRows)
		if ex.restrict != nil && ex.restrict.FlopsPerSec > 0 {
			w.rate = ex.restrict.FlopsPerSec / float64(np)
		}
	}
	ex.parkCh = make(chan struct{}, np)
}

// resetSteal restores the pre-run state from the templates.
func (ex *Executor) resetSteal() {
	copy(ex.srcLeft, ex.srcInit)
	copy(ex.finLeft, ex.finInit)
	for i := range ex.slotHead {
		ex.slotHead[i] = 0
		ex.slotDone[i] = 0
		ex.active[i] = 0
	}
	for i := range ex.slots {
		ex.slots[i] = -1
	}
	left := int32(ex.pr.NBlocks)
	if ex.restrict != nil {
		left = ex.execCount
	}
	ex.blocksLeft.Store(left)
	ex.doneCh = make(chan struct{})
	ex.doneOnce = sync.Once{}
	if left == 0 {
		ex.doneOnce.Do(func() { close(ex.doneCh) })
	}
	ex.sleepers.Store(0)
	ex.cancelled.Store(false)
	for {
		select {
		case <-ex.parkCh:
			continue
		default:
		}
		break
	}
	// ex.extCh is deliberately NOT drained: a restricted executor is
	// single-run, and arrivals injected between construction and Run (a
	// fast peer can complete blocks before a slow node starts its run)
	// must be delivered, not discarded.
	for p := range ex.workers {
		w := &ex.workers[p]
		w.failed = false
		w.flops = 0
		w.steals = 0
		w.start = time.Now()
		w.dq.top.Store(0)
		w.dq.bottom.Store(0)
	}
}

// run is the body of one worker goroutine.
func (w *wsWorker) run() {
	ex := w.ex
	if ex.domCols != nil && !w.runDomains() {
		return
	}
	// Seeds next, unconditionally — no abort poll, stopping only at this
	// worker's own first failure — so a breakdown in an unmodified
	// diagonal block is detected on every run regardless of interleaving
	// and the ranked fail() reports the lowest (Block, Row)
	// deterministically (same contract as the SPMD engine).
	for _, id := range ex.seeds[w.me] {
		w.finish(id)
		if w.failed {
			return
		}
	}
	for {
		if w.failed || ex.blocksLeft.Load() == 0 || w.aborted() {
			return
		}
		if ex.extCh != nil {
			select {
			case id := <-ex.extCh:
				w.propagate(id)
				continue
			default:
			}
		}
		if d, ok := w.dq.pop(); ok {
			w.processBlock(d)
			continue
		}
		if d, ok := w.steal(); ok {
			w.processBlock(d)
			continue
		}
		if !w.park() {
			return
		}
	}
}

func (w *wsWorker) aborted() bool {
	select {
	case <-w.ex.abort:
		return true
	default:
		return false
	}
}

// processBlock drains the destination's ready-pairing queue while holding
// its activation claim, releasing and re-claiming if more pairings were
// published during the release window.
func (w *wsWorker) processBlock(d int32) {
	ex := w.ex
	base := ex.pairs.DestBase[d]
	for {
		head := atomic.LoadInt32(&ex.slotHead[d])
		for done := atomic.LoadInt32(&ex.slotDone[d]); done < head; done++ {
			if w.aborted() {
				return
			}
			p := w.slotAt(base + done)
			// Only the claim holder advances slotDone, but the post-release
			// recheck below reads it concurrently, so the store is atomic.
			atomic.StoreInt32(&ex.slotDone[d], done+1)
			w.execPair(p)
			if w.failed {
				return
			}
		}
		atomic.StoreInt32(&ex.active[d], 0)
		if atomic.LoadInt32(&ex.slotHead[d]) == atomic.LoadInt32(&ex.slotDone[d]) {
			return
		}
		// Pairings raced the release; whoever wins the re-claim (us or the
		// publisher) continues the drain.
		if !atomic.CompareAndSwapInt32(&ex.active[d], 0, 1) {
			return
		}
	}
}

// slotAt spins out the tiny window between a publisher's slot reservation
// (the slotHead increment) and its slot store.
func (w *wsWorker) slotAt(i int32) int32 {
	for spins := 0; ; spins++ {
		if p := atomic.LoadInt32(&w.ex.slots[i]); p >= 0 {
			return p
		}
		if spins > 64 {
			runtime.Gosched()
		}
	}
}

// execPair performs one BMOD and hands the destination off if this was its
// last prerequisite.
func (w *wsWorker) execPair(p int32) {
	ex := w.ex
	pt := ex.pairs
	k, ia, jb := int(pt.Col[p]), int(pt.A[p]), int(pt.B[p])
	t0 := ex.rec.Start()
	if err := ex.f.BMOD(k, ia, jb, &w.ws); err != nil {
		ex.fail(err)
		w.failed = true
		return
	}
	dest := pt.Dest[p]
	ex.rec.Record(w.me, obs.OpBMOD, dest, ex.pr.BlockID(k, ia), t0)
	w.pace(ex.pr.ModFlops(k, ia, jb))
	if atomic.AddInt32(&ex.finLeft[dest], -1) == 0 {
		w.finish(dest)
	}
}

// runDomains factors this worker's domain panels as direct calls, in
// column order: the column's BFAC and BDIVs, then its BMODs. A BMOD whose
// destination lies in a domain panel runs here (the panel is this
// worker's, and every one of its earlier updates has run); one into a root
// panel is published to its destination queue, its sources being final.
// Like the seeds, the loop ignores a peer's failure: it stops only at its
// own failure or at the run's cancellation, and reports false then.
func (w *wsWorker) runDomains() bool {
	ex := w.ex
	pr := ex.pr
	for _, k32 := range ex.domCols[w.me] {
		k := int(k32)
		blks := pr.BS.Cols[k].Blocks
		for bi := range blks {
			if ex.cancelled.Load() || !w.ownOp(pr.BlockID(k, bi)) {
				return false
			}
		}
		base := pr.ModBase[k]
		// Block rows ascend, and a domain panel's ancestors leave the
		// domain for good, so the root destinations are the last jbs.
		// Publish those first: thieves can start on them at once.
		root := len(blks)
		for root > 1 && pr.DomOwner[blks[root-1].I] < 0 {
			root--
		}
		for jb := root; jb < len(blks); jb++ {
			for ia := jb; ia < len(blks); ia++ {
				w.ready(int32(base + (ia-1)*ia/2 + jb - 1))
			}
		}
		for jb := 1; jb < root; jb++ {
			for ia := jb; ia < len(blks); ia++ {
				if ex.cancelled.Load() {
					return false
				}
				t0 := ex.rec.Start()
				if err := ex.f.BMOD(k, ia, jb, &w.ws); err != nil {
					ex.fail(err)
					w.failed = true
					return false
				}
				ex.rec.Record(w.me, obs.OpBMOD, pr.ModDest[base+(ia-1)*ia/2+jb-1], pr.BlockID(k, ia), t0)
				w.pace(pr.ModFlops(k, ia, jb))
			}
		}
		if ex.blocksLeft.Add(-int32(len(blks))) == 0 {
			ex.doneOnce.Do(func() { close(ex.doneCh) })
		}
		if ex.domainColumnDone != nil {
			ex.domainColumnDone(w.me, k)
		}
	}
	return true
}

// finish runs a block's completing operation (BFAC or BDIV) and hands the
// block on. The caller guarantees exclusivity: either the block is a seed,
// or the caller just took finLeft to zero.
func (w *wsWorker) finish(id int32) {
	if w.ownOp(id) {
		w.completed(id)
	}
}

// ownOp runs block id's completing operation, reporting false (after
// failing the run) on a breakdown.
func (w *wsWorker) ownOp(id int32) bool {
	ex := w.ex
	k, idx := int(ex.pr.ColOf[id]), int(ex.pr.IdxOf[id])
	t0 := ex.rec.Start()
	if idx == 0 {
		if err := ex.f.BFAC(k); err != nil {
			ex.fail(err)
			w.failed = true
			return false
		}
		ex.rec.Record(w.me, obs.OpBFAC, id, -1, t0)
	} else {
		if err := ex.f.BDIV(k, idx); err != nil {
			ex.fail(err)
			w.failed = true
			return false
		}
		ex.rec.Record(w.me, obs.OpBDIV, id, -1, t0)
	}
	w.pace(ex.pr.OwnOpFlops[id])
	return true
}

// completed handles a locally executed block's completion: hand it to the
// restriction's fan-out hook, propagate it into the dependence counters,
// and retire it from the local block count.
func (w *wsWorker) completed(id int32) {
	ex := w.ex
	if ex.restrict != nil && ex.restrict.OnComplete != nil {
		ex.restrict.OnComplete(id)
	}
	w.propagate(id)
	if ex.blocksLeft.Add(-1) == 0 {
		ex.doneOnce.Do(func() { close(ex.doneCh) })
	}
}

// propagate fans a completed block's availability into the counters,
// whether it was computed here, retained from a previous epoch, or
// injected from the network: a diagonal block releases the BDIV
// prerequisite of its column's off-diagonal blocks (recursing at most once
// — their completions only publish pairings); an off-diagonal block
// decrements the source counters of every pairing it participates in.
func (w *wsWorker) propagate(id int32) {
	ex := w.ex
	pr := ex.pr
	k, idx := int(pr.ColOf[id]), int(pr.IdxOf[id])
	nb := len(pr.BS.Cols[k].Blocks)
	if idx == 0 {
		for j := 1; j < nb; j++ {
			bid := pr.BlockID(k, j)
			if atomic.AddInt32(&ex.finLeft[bid], -1) == 0 {
				// Under a restriction, non-local (or predone) blocks reach
				// zero too — their arrival is someone else's business.
				if ex.execMask != nil && !ex.execMask[bid] {
					continue
				}
				w.finish(bid)
				if w.failed {
					return
				}
			}
		}
	} else {
		base := pr.ModBase[k]
		for jb := 1; jb < nb; jb++ {
			hi, lo := idx, jb
			if hi < lo {
				hi, lo = lo, hi
			}
			p := int32(base + (hi-1)*hi/2 + lo - 1)
			if atomic.AddInt32(&ex.srcLeft[p], -1) == 0 {
				w.ready(p)
			}
		}
	}
}

// ready publishes a pairing whose sources are all complete to its
// destination's queue and elects an activation if none is live. Pairings
// into blocks a restriction excludes are dropped: their BMODs run on the
// destination's owner.
func (w *wsWorker) ready(p int32) {
	ex := w.ex
	d := ex.pairs.Dest[p]
	if ex.execMask != nil && !ex.execMask[d] {
		return
	}
	slot := ex.pairs.DestBase[d] + atomic.AddInt32(&ex.slotHead[d], 1) - 1
	atomic.StoreInt32(&ex.slots[slot], p)
	if atomic.CompareAndSwapInt32(&ex.active[d], 0, 1) {
		w.dq.push(d)
		if ex.sleepers.Load() > 0 {
			select {
			case ex.parkCh <- struct{}{}:
			default:
			}
		}
	}
}

// steal scans the other workers' deques from a random start, recording a
// span for a successful theft.
func (w *wsWorker) steal() (int32, bool) {
	ex := w.ex
	n := len(ex.workers)
	if n == 1 {
		return 0, false
	}
	t0 := ex.rec.Start()
	off := int(w.next() % uint64(n-1))
	for i := 0; i < n-1; i++ {
		v := int(w.me) + 1 + (off+i)%(n-1)
		if v >= n {
			v -= n
		}
		if d, ok := ex.workers[v].dq.steal(); ok {
			ex.rec.Record(w.me, obs.OpSteal, d, int32(v), t0)
			w.steals++
			return d, true
		}
	}
	return 0, false
}

// park blocks until new work may exist. It returns false when the worker
// should exit (done, aborted, or a detected stall). The sleeper counter
// plus post-announce re-sweep closes the lost-wakeup window: a publisher
// either sees our sleeper registration (and sends a token) or published
// before our sweep (and the sweep finds the task).
func (w *wsWorker) park() bool {
	ex := w.ex
	ns := ex.sleepers.Add(1)
	for v := range ex.workers {
		if d, ok := ex.workers[v].dq.steal(); ok {
			ex.sleepers.Add(-1)
			w.processBlock(d)
			return true
		}
	}
	// "Everyone idle, blocks unfinished" is a bug for a whole-schedule run,
	// but the steady state of a restricted run between network arrivals —
	// so only the unrestricted engine confirms a stall.
	if ex.restrict == nil && int(ns) == len(ex.workers) && ex.blocksLeft.Load() > 0 {
		switch w.confirmStall() {
		case stallExit:
			ex.sleepers.Add(-1)
			return false
		case stallResume:
			ex.sleepers.Add(-1)
			return true
		}
	}
	t0 := ex.rec.Start()
	select {
	case id := <-w.extChOrNil():
		ex.sleepers.Add(-1)
		ex.rec.Record(w.me, obs.OpIdle, -1, -1, t0)
		w.propagate(id)
		return true
	case <-ex.parkCh:
	case <-ex.abort:
	case <-ex.doneCh:
	}
	ex.sleepers.Add(-1)
	ex.rec.Record(w.me, obs.OpIdle, -1, -1, t0)
	return true
}

// extChOrNil exposes the external-arrival channel to park's select; the
// nil channel of an unrestricted executor simply never fires.
func (w *wsWorker) extChOrNil() chan int32 { return w.ex.extCh }

const (
	stallPark   = iota // state resolved; park normally
	stallResume        // return to the scheduling loop (work was found/done)
	stallExit          // done, aborted, or stall reported
)

// confirmStall handles the suspicious state "every worker idle, blocks
// unfinished": usually a transient (another worker between its wake-up and
// sleeper decrement, holding the last task), but if it persists with all
// deques empty the schedule has stalled — a bug, reported rather than
// deadlocked on.
func (w *wsWorker) confirmStall() int {
	ex := w.ex
	for i := 0; i < 60; i++ {
		time.Sleep(time.Millisecond)
		if ex.blocksLeft.Load() == 0 || w.aborted() {
			return stallExit
		}
		if int(ex.sleepers.Load()) < len(ex.workers) {
			return stallPark // someone is running again; park normally
		}
		for v := range ex.workers {
			if d, ok := ex.workers[v].dq.steal(); ok {
				// Still registered as a sleeper while processing — that
				// only makes publishers err toward sending wake tokens;
				// park's stallResume case deregisters afterwards.
				w.processBlock(d)
				return stallResume
			}
		}
	}
	ex.fail(fmt.Errorf("fanout: work-stealing executor stalled with %d blocks unfinished", ex.blocksLeft.Load()))
	return stallExit
}

// next is a xorshift64 step, giving each worker an allocation-free private
// stream of victim offsets.
func (w *wsWorker) next() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// splitmix64 seeds the per-worker generators deterministically.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// deque is a fixed-capacity Chase–Lev work-stealing deque of block ids.
// The owner pushes and pops at the bottom (LIFO); thieves steal from the
// top with a CAS. Capacity is a power of two ≥ NBlocks, which can never
// overflow: at most one live activation exists per block, so total
// occupancy across all deques is bounded by NBlocks. Buffer slots are
// accessed atomically — a steal may read a slot concurrently with the
// owner recycling it after wraparound, and the CAS on top then rejects the
// stale read.
type deque struct {
	top    atomic.Int64
	_      [56]byte // keep thief- and owner-side indices off one cache line
	bottom atomic.Int64
	buf    []int32
	mask   int64
}

func (d *deque) push(v int32) {
	b := d.bottom.Load()
	atomic.StoreInt32(&d.buf[b&d.mask], v)
	d.bottom.Store(b + 1)
}

func (d *deque) pop() (int32, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t < b {
		return atomic.LoadInt32(&d.buf[b&d.mask]), true
	}
	if t == b {
		// Last element: race the thieves for it via top.
		if d.top.CompareAndSwap(t, t+1) {
			d.bottom.Store(b + 1)
			return atomic.LoadInt32(&d.buf[b&d.mask]), true
		}
	}
	d.bottom.Store(b + 1)
	return 0, false
}

func (d *deque) steal() (int32, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return 0, false
	}
	v := atomic.LoadInt32(&d.buf[t&d.mask])
	if d.top.CompareAndSwap(t, t+1) {
		return v, true
	}
	return 0, false
}
