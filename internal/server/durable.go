package server

import (
	"fmt"
	"time"

	"blockfanout/internal/core"
	"blockfanout/internal/mapping"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
	"blockfanout/internal/store"
)

// buildPlan is the one place the server turns a matrix into an analysis:
// ordering + symbolic + partitioning + mapping under the configured options.
// Both the cold /v1/factor path and WarmStart build through it, so a
// restored plan is bit-identical to a freshly built one.
func (s *Server) buildPlan(m *sparse.Matrix) (*core.Plan, sched.Assignment, error) {
	plan, err := core.NewPlan(m, s.planOpts)
	if err != nil {
		return nil, sched.Assignment{}, err
	}
	g := mapping.BestGrid(s.cfg.Procs)
	mp := plan.Map(g, mapping.ID, mapping.CY)
	return plan, plan.Assign(mp, 2), nil
}

// saveSnapshot enqueues a write-behind snapshot of a freshly completed
// factor. Called with the entry's write lock held, so the block export is a
// coherent copy; the durable write itself happens on the single writer
// goroutine, off the request path. A full queue drops the snapshot (counted
// in /metrics) rather than stalling factorization: durability here is an
// optimization for restart time, never a source of tail latency.
//
// Two throttles keep the request path honest before any bytes are copied:
// SnapshotInterval spaces snapshots of the same factor (a refactor storm
// must not rewrite one key back-to-back, burning writer CPU and disk
// bandwidth for snapshots that supersede each other within milliseconds),
// and a full queue skips the snapshot outright — in both cases the request
// pays nothing at all, and the entry's next eligible completion re-arms.
func (s *Server) saveSnapshot(fe *factorEntry, m *sparse.Matrix, f *core.Factor) {
	if s.st == nil {
		return
	}
	if iv := s.cfg.SnapshotInterval; iv > 0 && !fe.lastSnap.IsZero() && time.Since(fe.lastSnap) < iv {
		s.met.snapSkipped.Add(1)
		return
	}
	// The length read is racy, but only against sends from other factor
	// completions; the worst case is one extra export or one extra drop,
	// never a stall or a lost factor.
	if len(s.snapCh) == cap(s.snapCh) {
		s.met.snapDropped.Add(1)
		return
	}
	fs := &store.FactorSnapshot{
		PatternHash: m.PatternHash(),
		ConfigKey:   s.planKey,
		N:           m.N,
		ColPtr:      m.ColPtr,
		RowInd:      m.RowInd,
		Val:         m.Val,
		Blocks:      f.Numeric().ExportBlocks(),
	}
	select {
	case s.snapCh <- fs:
		fe.lastSnap = time.Now()
	default:
		s.met.snapDropped.Add(1)
	}
}

// snapshotWriter is the single write-behind goroutine: it serializes store
// writes so concurrent factorizations never interleave writes to the same
// key, and drains the queue on Close.
func (s *Server) snapshotWriter() {
	defer close(s.writerDone)
	put := func(fs *store.FactorSnapshot) {
		if err := s.st.PutFactor(fs); err != nil {
			s.met.snapErrors.Add(1)
		} else {
			s.met.snapWrites.Add(1)
		}
	}
	for {
		select {
		case fs := <-s.snapCh:
			put(fs)
		case <-s.writerQuit:
			for {
				select {
				case fs := <-s.snapCh:
					put(fs)
				default:
					return
				}
			}
		}
	}
}

// Close flushes and stops the write-behind writer. Safe to call multiple
// times; a no-op for servers without a store.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.st == nil || s.storeErr != nil {
			return
		}
		close(s.writerQuit)
		<-s.writerDone
	})
}

// WarmStart restores the server's working set from the snapshot store:
// every snapshot written under this server's configuration key has its plan
// rebuilt into the plan cache and its numeric factor restored from the
// snapshotted blocks — no refactorization — and registered under the same
// factor id the original process served, so a client's previously issued id
// keeps working across the restart. Returns the number of factors restored.
// Corrupt snapshots are quarantined by the store and simply rebuilt cold on
// their next /v1/factor.
func (s *Server) WarmStart() (int, error) {
	if s.st == nil {
		return 0, s.storeErr
	}
	warm, err := s.cache.WarmStart(s.st, s.planKey, s.buildPlan)
	if err != nil {
		return 0, err
	}
	restored := 0
	for _, we := range warm {
		f, err := we.Entry.Plan.RestoreFactor(we.Entry.Assign, we.Snap.Val, we.Snap.Blocks)
		if err != nil {
			// Blocks inconsistent with the rebuilt plan (e.g. snapshot from a
			// different build): drop it and let the next request build cold.
			s.st.DeleteFactor(we.Snap.PatternHash, we.Snap.ConfigKey)
			continue
		}
		id := fmt.Sprintf("%016x", we.Snap.PatternHash)
		fe, created := s.claimEntry(id, we.Snap.N, we.Entry.Plan)
		if !created {
			continue // already live (duplicate snapshot key); keep the first
		}
		fe.f = f
		s.markReady(fe)
		fe.mu.Unlock()
		restored++
	}
	s.met.warmRestored.Store(int64(restored))
	return restored, nil
}

// StoreStats exposes the snapshot-store counters (nil without a store).
func (s *Server) StoreStats() *store.Stats {
	if s.st == nil {
		return nil
	}
	st := s.st.Stats()
	return &st
}
