package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blockfanout/internal/core"
	"blockfanout/internal/gen"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
	"blockfanout/internal/sparse"
	"blockfanout/internal/store"
)

// solveVec posts one RHS and returns x.
func solveVec(t *testing.T, url, id string, b []float64) []float64 {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/solve", SolveRequest{ID: id, B: b})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}
	var sr solveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr.X
}

func residualNorm(m *sparse.Matrix, x, b []float64) float64 {
	r := make([]float64, m.N)
	copy(r, b)
	for j := 0; j < m.N; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			i, v := m.RowInd[p], m.Val[p]
			r[i] -= v * x[j]
			if i != j {
				r[j] -= v * x[i]
			}
		}
	}
	var n float64
	for _, v := range r {
		n += v * v
	}
	return math.Sqrt(n)
}

// TestWarmStartKillRestart is the kill-and-restart e2e: a factor built by
// one server process is served by its successor from disk — same id, no
// refactorization — after a WarmStart.
func TestWarmStartKillRestart(t *testing.T) {
	dir := t.TempDir()
	m := gen.IrregularMesh(300, 6, 2, 5)

	// First life: factor, then shut down (flushing the write-behind queue).
	s1, ts1 := testService(t, Config{StoreDir: dir, BatchWindow: -1})
	fr := factorMatrix(t, ts1.URL, m)
	s1.Close()
	ts1.Close()

	// Second life on the same directory.
	s2, ts2 := testService(t, Config{StoreDir: dir, BatchWindow: -1})
	t.Cleanup(s2.Close)
	restored, err := s2.WarmStart()
	if err != nil {
		t.Fatalf("warm start: %v", err)
	}
	if restored != 1 {
		t.Fatalf("restored %d factors, want 1", restored)
	}

	// The old id solves immediately — no /v1/factor, no refactorization.
	b := make([]float64, m.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	x := solveVec(t, ts2.URL, fr.ID, b)
	if res := residualNorm(m, x, b); res > 1e-8 {
		t.Fatalf("restored factor residual %g", res)
	}
	if got := s2.met.factors.Load() + s2.met.refactors.Load(); got != 0 {
		t.Fatalf("restart ran %d factorizations, want 0", got)
	}

	// A /v1/factor for the same matrix is a plan-cache hit (no symbolic
	// rebuild) and a numeric-only refactor of the restored factor.
	fr2 := factorMatrix(t, ts2.URL, m)
	if !fr2.CacheHit || !fr2.Refactored {
		t.Fatalf("post-restart factor: hit=%v refactored=%v, want true/true", fr2.CacheHit, fr2.Refactored)
	}

	// /metrics reports the store section.
	doc := fetchMetrics(t, ts2.URL)
	if doc.Store == nil || doc.Store.WarmRestored != 1 {
		t.Fatalf("metrics store section: %+v", doc.Store)
	}
}

// TestWarmStartCorruptSnapshot: a corrupted snapshot must not stop the boot
// or be served; the pattern simply builds cold on its next factor request.
func TestWarmStartCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	m := gen.IrregularMesh(200, 5, 2, 3)

	s1, ts1 := testService(t, Config{StoreDir: dir, BatchWindow: -1})
	factorMatrix(t, ts1.URL, m)
	s1.Close()
	ts1.Close()

	// Truncate the snapshot.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") {
			p := filepath.Join(dir, e.Name())
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, b[:len(b)/3], 0o644); err != nil {
				t.Fatal(err)
			}
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("no snapshot written by first life")
	}

	s2, ts2 := testService(t, Config{StoreDir: dir, BatchWindow: -1})
	t.Cleanup(s2.Close)
	restored, err := s2.WarmStart()
	if err != nil || restored != 0 {
		t.Fatalf("warm start over corrupt snapshot: restored=%d err=%v", restored, err)
	}
	// Cold build still works, and re-persists a good snapshot.
	fr := factorMatrix(t, ts2.URL, m)
	if fr.CacheHit {
		t.Fatal("corrupt snapshot produced a cache hit")
	}
	b := make([]float64, m.N)
	for i := range b {
		b[i] = 1
	}
	x := solveVec(t, ts2.URL, fr.ID, b)
	if res := residualNorm(m, x, b); res > 1e-8 {
		t.Fatalf("cold rebuild residual %g", res)
	}
}

// TestSnapshotWriteBehindFlush: Close drains queued snapshots to disk.
func TestSnapshotWriteBehindFlush(t *testing.T) {
	dir := t.TempDir()
	s, ts := testService(t, Config{StoreDir: dir, BatchWindow: -1})
	for _, n := range []int{150, 220} {
		factorMatrix(t, ts.URL, gen.IrregularMesh(n, 5, 2, 3))
	}
	s.Close()
	ts.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") {
			snaps++
		}
	}
	if snaps != 2 {
		t.Fatalf("found %d snapshots after Close, want 2", snaps)
	}
}

// TestWarmStartOrphansNaturalOrderingSnapshot: builds that analyzed under
// the natural ordering wrote snapshots under a different configuration
// key (the ordering is part of core.Options.ConfigKey). Such a store boots
// cleanly and restores nothing, and a re-POST of the matrix builds cold
// under minimum degree, keeping its id.
func TestWarmStartOrphansNaturalOrderingSnapshot(t *testing.T) {
	dir := t.TempDir()
	m := gen.IrregularMesh(300, 6, 2, 5)

	// The snapshot an older build would have written for m.
	probe := New(Config{})
	oldOpts := probe.planOpts
	oldOpts.Ordering = order.Natural
	plan, err := core.NewPlan(m, oldOpts)
	if err != nil {
		t.Fatal(err)
	}
	asg := plan.Assign(plan.Map(mapping.BestGrid(probe.cfg.Procs), mapping.ID, mapping.CY), 2)
	f, _, err := plan.FactorValuesContext(context.Background(), asg, m.Val, core.FactorRun{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutFactor(&store.FactorSnapshot{
		PatternHash: m.PatternHash(), ConfigKey: oldOpts.ConfigKey(),
		N: m.N, ColPtr: m.ColPtr, RowInd: m.RowInd, Val: m.Val,
		Blocks: f.Numeric().ExportBlocks(),
	}); err != nil {
		t.Fatal(err)
	}

	s, ts := testService(t, Config{StoreDir: dir, BatchWindow: -1})
	t.Cleanup(s.Close)
	restored, err := s.WarmStart()
	if err != nil || restored != 0 {
		t.Fatalf("warm start over a natural-ordering snapshot: restored %d, err %v; want 0, nil", restored, err)
	}
	if keys, err := st.ScanFactors(); err != nil || len(keys) != 1 || keys[0].ConfigKey != oldOpts.ConfigKey() {
		t.Fatalf("store after boot holds %v (err %v); want the orphaned natural-ordering snapshot", keys, err)
	}
	fr := factorMatrix(t, ts.URL, m)
	if fr.CacheHit || fr.Refactored {
		t.Fatalf("re-POST: cache_hit=%v refactored=%v; want a cold build", fr.CacheHit, fr.Refactored)
	}
	if want := fmt.Sprintf("%016x", m.PatternHash()); fr.ID != want {
		t.Fatalf("re-POST id %s, want %s", fr.ID, want)
	}
	md, err := core.NewPlan(m, core.Options{Ordering: order.MinDegree})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Flops != md.Exact.Flops {
		t.Fatalf("re-POST flops %d, minimum degree gives %d", fr.Flops, md.Exact.Flops)
	}
}

// TestDefaultConfigKeyGolden: the server's default plan configuration key
// is the one existing data directories filed their factor snapshots under.
// If it moves, every snapshot on disk is orphaned at the next upgrade.
func TestDefaultConfigKeyGolden(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	if s.planKey != 0x9692c77b0f16e051 {
		t.Fatalf("default plan key %#016x, want %#016x", s.planKey, uint64(0x9692c77b0f16e051))
	}
}

// TestWarmStartSkipsRemovedTunedData boots on a data directory written by
// builds that had feedback-driven mapping: a cost-profile file and factor
// snapshots filed under a tuned configuration key sit next to one snapshot
// under the static key. Boot must succeed and restore exactly the static
// snapshot; the rest is left alone and a tuned-only pattern builds cold on
// its next POST.
func TestWarmStartSkipsRemovedTunedData(t *testing.T) {
	dir := t.TempDir()
	// A configuration key the tuned mapping produced from the default
	// options (provenance and a profile fingerprint mixed in).
	const tunedKey = 0x46ebe95cfcf79dd8
	static := gen.IrregularMesh(300, 6, 2, 5)
	tunedOnly := gen.IrregularMesh(260, 6, 2, 9)

	probe := New(Config{})
	t.Cleanup(probe.Close)
	snap := func(m *sparse.Matrix, key uint64) *store.FactorSnapshot {
		plan, asg, err := probe.buildPlan(m)
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := plan.FactorValuesContext(context.Background(), asg, m.Val, core.FactorRun{})
		if err != nil {
			t.Fatal(err)
		}
		return &store.FactorSnapshot{
			PatternHash: m.PatternHash(), ConfigKey: key,
			N: m.N, ColPtr: m.ColPtr, RowInd: m.RowInd, Val: m.Val,
			Blocks: f.Numeric().ExportBlocks(),
		}
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range []*store.FactorSnapshot{
		snap(static, probe.planKey), snap(static, tunedKey), snap(tunedOnly, tunedKey),
	} {
		if err := st.PutFactor(fs); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []*sparse.Matrix{static, tunedOnly} {
		name := fmt.Sprintf("profile-%016x-%016x.snap", m.PatternHash(), probe.planKey)
		if err := os.WriteFile(filepath.Join(dir, name), []byte("cost profile of a removed feature"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, ts := testService(t, Config{StoreDir: dir, BatchWindow: -1})
	t.Cleanup(s.Close)
	restored, err := s.WarmStart()
	if err != nil || restored != 1 {
		t.Fatalf("warm start: restored %d, err %v; want exactly the static snapshot", restored, err)
	}
	b := make([]float64, static.N)
	for i := range b {
		b[i] = float64(1 + i%5)
	}
	x := solveVec(t, ts.URL, fmt.Sprintf("%016x", static.PatternHash()), b)
	if r := residualNorm(static, x, b); r > 1e-8 {
		t.Fatalf("restored static factor solve residual %g", r)
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{ID: fmt.Sprintf("%016x", tunedOnly.PatternHash()), B: make([]float64, tunedOnly.N)})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("solve on a tuned-only pattern: status %d (%s), want 404", resp.StatusCode, body)
	}
	if fr := factorMatrix(t, ts.URL, tunedOnly); fr.CacheHit || fr.Refactored {
		t.Fatalf("tuned-only re-POST: cache_hit=%v refactored=%v; want a cold build", fr.CacheHit, fr.Refactored)
	}
}
