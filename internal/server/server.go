// Package server turns the block fan-out Cholesky library into a
// long-running solve service. It is the serving layer the ROADMAP's
// analyze-once/factor-many workloads need: a pattern-keyed plan cache so
// repeated factor requests for the same sparsity structure skip ordering
// and symbolic analysis, in-place numeric refactorization of live factors,
// and an RHS batcher that coalesces concurrent solve requests against the
// same factor into one cache-friendly multi-RHS sweep.
//
// Endpoints (all JSON responses):
//
//	POST /v1/factor   MatrixMarket or JSON-CSC body → factor id
//	POST /v1/solve    {"id", "b": [...]} or {"id", "bs": [[...], ...]}
//	GET  /healthz     liveness (503 while draining)
//	GET  /metrics     expvar-style counter document
//
// Heavy work (analysis, factorization, solves) runs through the
// multi-tenant admission controller (internal/admission): requests carry a
// tenant identity (X-Tenant header) subject to token-bucket rates and
// concurrency quotas, wait in a weighted priority queue (interactive
// solves > refactors > cold factorizations) for a bounded worker pool, and
// are shed with structured 429/503 + Retry-After when their deadline can
// no longer cover their modeled cost or when the brownout state machine
// (queue depth + memory watermarks) degrades the service. Request
// deadlines propagate as context cancellation into the parallel
// factorization executor. Drain flips the service into a mode where health
// checks fail (so load balancers stop routing) while in-flight work
// completes.
package server

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"blockfanout/internal/admission"
	"blockfanout/internal/blocks"
	"blockfanout/internal/core"
	"blockfanout/internal/fanout"
	"blockfanout/internal/faultinject"
	"blockfanout/internal/kernels"
	"blockfanout/internal/order"
	"blockfanout/internal/plancache"
	"blockfanout/internal/sched"
	"blockfanout/internal/sparse"
	"blockfanout/internal/store"
)

// Config tunes the service. Zero values select the documented defaults.
type Config struct {
	// Procs is the goroutine-processor count of each parallel
	// factorization (default: GOMAXPROCS capped at 16).
	Procs int
	// Workers bounds concurrently executing heavy operations
	// (default: GOMAXPROCS).
	Workers int
	// QueueDepth is how many heavy operations may wait for a worker before
	// new ones are rejected with 429 (default 64).
	QueueDepth int
	// ReserveInteractive holds this many worker slots for interactive
	// solves alone: factorizations and refactorizations together occupy
	// at most Workers−ReserveInteractive slots, so admitted heavy work
	// cannot head-of-line block every lane (0 = no reservation).
	ReserveInteractive int
	// CacheEntries / CacheBytes budget the pattern-keyed plan cache
	// (defaults: plancache defaults). MaxFactors bounds the live factor
	// registry (default: CacheEntries).
	CacheEntries int
	CacheBytes   int64
	MaxFactors   int
	// BatchWindow bounds how long a single-RHS solve that arrives while a
	// sweep of its factor is running waits for company; a solve that finds
	// its factor idle runs at once (default 2ms; negative disables
	// batching). BatchLimit flushes a batch early once it holds this many
	// vectors (default 64).
	BatchWindow time.Duration
	BatchLimit  int
	// RequestTimeout bounds each request's heavy work (default 60s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 512 MiB).
	MaxBodyBytes int64
	// BlockSize is the panel width B of new plans (default
	// core.DefaultBlockSize).
	BlockSize int
	// Blocking selects the partitioning strategy for new plans (default
	// blocks.StrategyUniform); AmalgThreshold is the relative-fill
	// amalgamation threshold for the irregular strategy (0 = default).
	// Both are part of the plan-cache key, so servers configured
	// differently never share cached analyses even across restarts of the
	// same process.
	Blocking       blocks.Strategy
	AmalgThreshold float64
	// Exec selects the parallel execution engine for factorizations
	// (default fanout.ModeWorkStealing, "steal"); like Blocking it is part
	// of the plan-cache key, since each cached plan's factors embed an
	// executor of the configured mode.
	Exec fanout.Mode
	// RetryAttempts is how many times a transient infrastructure failure
	// (see internal/faultinject) is retried with exponential backoff before
	// the request fails (default 2; negative disables). Numeric failures —
	// pivot breakdowns — are never transient and never retried.
	RetryAttempts int
	// RetryBackoff is the first retry's backoff; it doubles per attempt
	// (default 5ms).
	RetryBackoff time.Duration
	// BreakerThreshold trips a per-pattern circuit breaker after this many
	// consecutive pivot failures, after which factor requests for that
	// pattern fail fast with 422 until BreakerCooldown elapses (default 3;
	// negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped pattern fails fast (default 30s).
	BreakerCooldown time.Duration
	// StoreDir, when non-empty, enables the durable snapshot store: every
	// completed factorization is written behind (asynchronously) to this
	// directory, and WarmStart restores the working set from it on boot. An
	// empty StoreDir keeps the server fully in-memory (the pre-durability
	// behavior).
	StoreDir string
	// SnapshotInterval is the minimum spacing between write-behind
	// snapshots of the same factor (default 1s; negative = snapshot every
	// completed factorization). A factor's first snapshot is never
	// throttled; under a refactor storm the interval bounds the writer's
	// bandwidth and CPU instead of rewriting the same key back-to-back,
	// at the cost of a restart restoring values up to one interval stale —
	// the same last-written-snapshot semantics a full queue already gives.
	SnapshotInterval time.Duration
	// Tenants maps tenant name (the X-Tenant request header) to its
	// admission limits; TenantDefault applies to every unlisted tenant
	// (zero value: unlimited). See internal/admission.
	Tenants       map[string]admission.TenantLimits
	TenantDefault admission.TenantLimits
	// MaxFactorBytes rejects factor requests whose estimated factor size
	// exceeds this budget with 413 *before* any symbolic work (0 =
	// unlimited). On a plan-cache hit the estimate is the exact nnz(L)×8;
	// on a miss it is the 8×nnz(tril(A)) lower bound — Cholesky fill only
	// adds nonzeros, so a matrix over budget on the lower bound can only
	// be further over after analysis.
	MaxFactorBytes int64
	// MemSoftBytes / MemHardBytes are heap watermarks driving the brownout
	// state machine to shed-low-priority / reject-new-factors (0 = queue
	// depth alone drives brownout). ShedAt / RejectAt override the
	// queue-occupancy brownout thresholds (0 = admission defaults).
	MemSoftBytes uint64
	MemHardBytes uint64
	ShedAt       float64
	RejectAt     float64
}

func (c *Config) fillDefaults() {
	if c.Procs <= 0 {
		c.Procs = runtime.GOMAXPROCS(0)
		if c.Procs > 16 {
			c.Procs = 16
		}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.BatchLimit <= 0 {
		c.BatchLimit = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 512 << 20
	}
	if c.BlockSize <= 0 {
		c.BlockSize = core.DefaultBlockSize
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = plancache.DefaultEntries
	}
	if c.MaxFactors <= 0 {
		c.MaxFactors = c.CacheEntries
	}
	switch {
	case c.RetryAttempts == 0:
		c.RetryAttempts = 2
	case c.RetryAttempts < 0:
		c.RetryAttempts = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	switch {
	case c.BreakerThreshold == 0:
		c.BreakerThreshold = 3
	case c.BreakerThreshold < 0:
		c.BreakerThreshold = 0
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	switch {
	case c.SnapshotInterval == 0:
		c.SnapshotInterval = time.Second
	case c.SnapshotInterval < 0:
		c.SnapshotInterval = 0
	}
}

// factorEntry is one live factor. mu serializes refactorization (writer)
// against solves (readers). f is nil while the initial factorization is
// still running under the write lock, and again — permanently — after a
// failed factorization or refactorization invalidates the entry; every
// reader must check f under the lock before dereferencing.
type factorEntry struct {
	id   string
	n    int
	plan *core.Plan // the analysis this factor was built from (pattern guard)
	mu   sync.RWMutex
	f    *core.Factor
	bt   *batcher
	el   *list.Element // position in the server's factor LRU
	// building is true while the creator still holds mu for the initial
	// factorization. Guarded by the server's mu; eviction skips building
	// entries so a freshly issued id cannot vanish before its factor lands.
	building bool
	// lastSnap is when this factor last enqueued a write-behind snapshot
	// (zero: never). Guarded by mu (held for writing at both snapshot
	// sites); Config.SnapshotInterval throttles against it.
	lastSnap time.Time
}

// Server is the solve service. Create with New, mount via Handler.
type Server struct {
	cfg   Config
	cache *plancache.Cache
	adm   *admission.Controller // multi-tenant worker-pool gate
	cost  admission.CostModel   // observed ns/flop for deadline feasibility

	// planOpts/planKey are the fixed plan-construction options and their
	// cache-key digest, computed once from cfg.
	planOpts core.Options
	planKey  uint64

	mu       sync.Mutex // guards factors, lru, breakers
	factors  map[string]*factorEntry
	lru      *list.List // front = most recently used factorEntry
	draining bool
	breakers map[string]*breakerState

	// Durable snapshot store (nil when Config.StoreDir is empty or the
	// directory failed to open; storeErr keeps the failure for /metrics).
	st         *store.Store
	storeErr   error
	snapCh     chan *store.FactorSnapshot
	writerQuit chan struct{}
	writerDone chan struct{}
	closeOnce  sync.Once

	met metrics
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	// Every new pattern is analyzed under minimum degree, the fill-reducing
	// ordering of the paper's irregular problems and the cluster gateway's
	// default.
	opts := core.Options{BlockSize: cfg.BlockSize, Ordering: order.MinDegree, Blocking: cfg.Blocking, AmalgThreshold: cfg.AmalgThreshold, Exec: cfg.Exec}
	s := &Server{
		cfg:      cfg,
		planOpts: opts,
		planKey:  opts.ConfigKey(),
		cache:    plancache.New(plancache.Config{MaxEntries: cfg.CacheEntries, MaxBytes: cfg.CacheBytes}),
		adm: admission.New(admission.Config{
			Workers:            cfg.Workers,
			QueueDepth:         cfg.QueueDepth,
			ReserveInteractive: cfg.ReserveInteractive,
			Default:            cfg.TenantDefault,
			Tenants:            cfg.Tenants,
			ShedAt:             cfg.ShedAt,
			RejectAt:           cfg.RejectAt,
			MemSoftBytes:       cfg.MemSoftBytes,
			MemHardBytes:       cfg.MemHardBytes,
		}),
		factors:  make(map[string]*factorEntry),
		lru:      list.New(),
		breakers: make(map[string]*breakerState),
	}
	if cfg.StoreDir != "" {
		s.st, s.storeErr = store.Open(cfg.StoreDir)
		if s.storeErr == nil {
			s.snapCh = make(chan *store.FactorSnapshot, 8)
			s.writerQuit = make(chan struct{})
			s.writerDone = make(chan struct{})
			go s.snapshotWriter()
		}
	}
	return s
}

// Handler returns the service's HTTP mux, wrapped in the panic-recovery
// middleware: one request hitting a bug (or an injected panic) produces a
// 500, not a dead process with every cached factor lost.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/factor", s.handleFactor)
	mux.HandleFunc("/v1/solve", s.handleSolve)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return s.recoverPanics(mux)
}

// recoverPanics converts a handler panic into a 500 response. If the
// handler already wrote a response the WriteHeader call is a no-op logged
// by net/http; the connection still closes cleanly either way.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panics.Add(1)
				s.met.errors.Add(1)
				writeJSON(w, http.StatusInternalServerError,
					errorBody{Error: fmt.Sprintf("internal panic: %v", rec), Code: "panic"})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// Drain flips the server into shutdown mode: /healthz reports 503 so load
// balancers stop routing, new factor/solve requests are refused and queued
// waiters are shed while in-flight ones finish (http.Server.Shutdown
// provides the actual wait).
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.adm.SetDraining(true)
}

var errFactorInvalid = errors.New("factor is no longer valid: its factorization or refactorization failed; re-POST the matrix to /v1/factor")

// tenantOf extracts the request's tenant identity.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return admission.DefaultTenant
}

// admissionDeadline converts ctx's deadline for the admission request
// (zero when the context has none).
func admissionDeadline(ctx context.Context) time.Time {
	d, _ := ctx.Deadline()
	return d
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ---- response plumbing ----

// errorBody is the JSON error envelope. Pivot breakdowns carry their
// location so a client can see *where* its matrix lost positive
// definiteness, not just that it did; admission rejections carry the
// Retry-After hint in-body as well as in the header.
type errorBody struct {
	Error string   `json:"error"`
	Code  string   `json:"code,omitempty"`  // "pivot_breakdown", "breaker_open", "panic", admission codes, ...
	Block *int     `json:"block,omitempty"` // failing panel (pivot breakdowns only)
	Row   *int     `json:"row,omitempty"`   // failing global row
	Pivot *float64 `json:"pivot,omitempty"` // offending pivot value
	// RetryAfterS mirrors the Retry-After header on 429/503 rejections.
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// errBody builds the error envelope, extracting pivot coordinates when the
// chain contains a kernels.PivotError.
func errBody(err error) errorBody {
	body := errorBody{Error: err.Error()}
	var pe *kernels.PivotError
	if errors.As(err, &pe) {
		if errors.Is(err, errBreakerOpen) {
			body.Code = "breaker_open"
		} else {
			body.Code = "pivot_breakdown"
		}
		block, row, pivot := pe.Block, pe.Row, pe.Pivot
		body.Block, body.Row, body.Pivot = &block, &row, &pivot
	} else if errors.Is(err, errBreakerOpen) {
		body.Code = "breaker_open"
	}
	return body
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeErr(w http.ResponseWriter, code int, err error) {
	var rej *admission.Rejection
	if errors.As(err, &rej) {
		s.writeRejection(w, rej)
		return
	}
	if code != http.StatusTooManyRequests {
		s.met.errors.Add(1)
	}
	writeJSON(w, code, errBody(err))
}

// writeRejection renders a structured admission rejection: the Retry-After
// header (whole seconds, as HTTP requires) plus the error envelope with
// the stable code and the same hint in-body.
func (s *Server) writeRejection(w http.ResponseWriter, rej *admission.Rejection) {
	s.met.rejected.Add(1)
	if rej.Status != http.StatusTooManyRequests {
		s.met.errors.Add(1)
	}
	writeRejection(w, rej)
}

func writeRejection(w http.ResponseWriter, rej *admission.Rejection) {
	ra := rej.RetryAfter
	if ra <= 0 {
		ra = time.Second
	}
	secs := int64((ra + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, rej.Status, errorBody{
		Error:       rej.Message,
		Code:        rej.Code,
		RetryAfterS: float64(secs),
	})
}

// withRetry runs op, retrying transient failures (injected infrastructure
// faults, never numeric errors) with exponential backoff. The backoff wait
// respects the request's deadline.
func (s *Server) withRetry(ctx context.Context, op func() error) error {
	backoff := s.cfg.RetryBackoff
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || attempt >= s.cfg.RetryAttempts || !faultinject.IsTransient(err) {
			return err
		}
		s.met.retries.Add(1)
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
		backoff *= 2
	}
}

// ---- per-pattern circuit breaker ----

var errBreakerOpen = errors.New("circuit breaker open: this pattern's factorizations keep failing on a pivot; retry after the cooldown or fix the matrix")

// breakerState tracks consecutive pivot failures for one pattern id.
type breakerState struct {
	fails     int
	until     time.Time // while now < until, factor requests fail fast
	lastPivot error     // most recent pivot failure, echoed by fail-fast responses
}

// breakerOpen reports whether id is tripped; the returned error wraps the
// pattern's last pivot failure so the fail-fast 422 still carries the
// breakdown location. A breaker whose cooldown has elapsed resets fully:
// the next real factorization decides its fate.
func (s *Server) breakerOpen(id string) (error, bool) {
	if s.cfg.BreakerThreshold <= 0 {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	bs, ok := s.breakers[id]
	if !ok || bs.until.IsZero() {
		return nil, false
	}
	if time.Now().After(bs.until) {
		delete(s.breakers, id)
		return nil, false
	}
	return fmt.Errorf("%w: %w", errBreakerOpen, bs.lastPivot), true
}

// breakerNote records a factor/refactor outcome for id. Only pivot
// breakdowns count against the pattern; transient faults, cancellations,
// and successes clear it.
func (s *Server) breakerNote(id string, err error) {
	if s.cfg.BreakerThreshold <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil || !errors.Is(err, kernels.ErrNotPositiveDefinite) {
		delete(s.breakers, id)
		return
	}
	bs, ok := s.breakers[id]
	if !ok {
		bs = &breakerState{}
		s.breakers[id] = bs
	}
	bs.fails++
	bs.lastPivot = err
	if bs.fails >= s.cfg.BreakerThreshold && bs.until.IsZero() {
		bs.until = time.Now().Add(s.cfg.BreakerCooldown)
		s.met.breakerTrips.Add(1)
	}
}

// errStatus maps an operational error to its HTTP status. Admission
// rejections carry their own status.
func errStatus(err error) int {
	var rej *admission.Rejection
	switch {
	case errors.As(err, &rej):
		return rej.Status
	case errors.Is(err, errFactorInvalid):
		return http.StatusConflict
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// ---- /v1/factor ----

type factorResponse struct {
	ID         string `json:"id"`
	N          int    `json:"n"`
	NNZ        int    `json:"nnz"`
	NNZL       int64  `json:"nnz_l"`
	Flops      int64  `json:"flops"`
	CacheHit   bool   `json:"cache_hit"`
	Refactored bool   `json:"refactored"`
	// Shift is the diagonal perturbation α applied under ?perturb=1; zero
	// when the matrix factored unmodified. The factor then solves A+αI.
	Shift     float64 `json:"shift,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

func (s *Server) handleFactor(w http.ResponseWriter, r *http.Request) {
	s.met.factorRequests.Add(1)
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.isDraining() {
		s.writeErr(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// Shed doomed requests before parsing the matrix — the largest body
	// the server accepts. The class is not knowable until the pattern
	// hash is, so precheck as Refactor (the lenient choice: a cold
	// factorization slipping past here is still rejected by Admit).
	if rej := s.adm.Precheck(tenantOf(r), admission.Refactor); rej != nil {
		s.writeRejection(w, rej)
		return
	}

	m, err := ReadMatrix(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.Header.Get("Content-Type"))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	perturb := r.URL.Query().Get("perturb") == "1" || r.URL.Query().Get("perturb") == "true"

	// Fail fast on a tripped breaker before analysis or queueing: the id is
	// the pattern hash, so it is known before any heavy work.
	id := fmt.Sprintf("%016x", m.PatternHash())
	if berr, open := s.breakerOpen(id); open {
		s.met.breakerFastFails.Add(1)
		s.writeErr(w, http.StatusUnprocessableEntity, berr)
		return
	}

	// Price the request before admission. A live factor makes this a
	// numeric-only refactorization (middle priority class); a cached plan
	// gives the exact modeled flops (deadline feasibility) and factor
	// size. Neither peek promotes LRU positions or counts as a hit.
	tenant := tenantOf(r)
	pri := admission.Cold
	if s.factorLive(id) {
		pri = admission.Refactor
	}
	var costEst time.Duration
	var exactBytes int64
	if pe, ok := s.cache.Peek(m, s.planKey); ok {
		costEst = s.cost.Estimate(pe.Plan.Exact.Flops)
		exactBytes = pe.Plan.Exact.NZinL * 8
	}
	if body, reject := s.factorBytesGate(m, exactBytes); reject {
		s.met.rejected.Add(1)
		s.met.errors.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge, body)
		return
	}
	if rej := s.tenantCacheGate(tenant, m); rej != nil {
		s.writeRejection(w, rej)
		return
	}

	rel, rej, err := s.adm.Admit(ctx, admission.Request{
		Tenant:   tenant,
		Priority: pri,
		Cost:     costEst,
		Deadline: admissionDeadline(ctx),
	})
	if rej != nil {
		s.writeRejection(w, rej)
		return
	}
	if err != nil {
		s.writeErr(w, errStatus(err), err)
		return
	}
	defer rel()

	start := time.Now()
	entry, hit, err := s.cache.GetOrBuildFor(m, s.planKey, tenant, func() (*core.Plan, sched.Assignment, error) {
		return s.buildPlan(m)
	})
	if err != nil {
		s.writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}

	refactored := false
	var shift float64
	for attempt := 0; ; attempt++ {
		fe, created := s.claimEntry(id, m.N, entry.Plan)
		if created {
			// fe.mu is held for writing; publish the factor, or unregister
			// (before unlocking, so waiters that see f==nil know the entry
			// is already gone and can safely re-claim) on failure. The
			// factorization must use the posted values, not the plan's: on a
			// cache hit the plan carries whichever values built it.
			var f *core.Factor
			ferr := s.guardEntry(fe, func() error {
				return s.withRetry(ctx, func() error {
					if err := faultinject.Fire("server.factor"); err != nil {
						return err
					}
					var run core.FactorRun
					if perturb {
						run.Perturb = &core.Perturbation{}
					}
					fr, rep, err := entry.Plan.FactorValuesContext(ctx, entry.Assign, m.Val, run)
					f, shift = fr, rep.Shift
					return err
				})
			})
			s.breakerNote(id, ferr)
			if ferr != nil {
				s.dropEntry(fe)
				fe.mu.Unlock()
				s.writeErr(w, factorErrStatus(ferr), ferr)
				return
			}
			fe.f = f
			s.saveSnapshot(fe, m, fe.f)
			s.markReady(fe)
			fe.mu.Unlock()
			s.met.factors.Add(1)
			s.met.factorLat.Observe(time.Since(start))
			s.cost.Observe(entry.Plan.Exact.Flops, time.Since(start))
			break
		}
		// Live factor for this pattern: numeric-only refactorization. The
		// write lock serializes against in-flight solves, so a solve
		// observes either the old values' factor or the new one, never a
		// half-updated state.
		fe.mu.Lock()
		if fe.f == nil {
			// The entry's creator failed and dropped it between our claim
			// and this lock; retry — we will most likely become the creator.
			fe.mu.Unlock()
			if attempt < 4 {
				continue
			}
			s.writeErr(w, http.StatusServiceUnavailable, errors.New("factorization repeatedly failing for this pattern"))
			return
		}
		if !fe.plan.A.SamePattern(m) {
			// 64-bit pattern-hash collision with a live factor: refuse
			// rather than refactor the wrong structure.
			fe.mu.Unlock()
			s.writeErr(w, http.StatusConflict, fmt.Errorf("factor id %s is held by a different sparsity pattern (hash collision)", id))
			return
		}
		rerr := s.guardEntry(fe, func() error {
			return s.withRetry(ctx, func() error {
				if err := faultinject.Fire("server.refactor"); err != nil {
					return err
				}
				var err error
				if perturb {
					shift, err = fe.f.RefactorPerturbedContext(ctx, m.Val, core.Perturbation{})
				} else {
					err = fe.f.RefactorContext(ctx, m.Val)
				}
				return err
			})
		})
		s.breakerNote(id, rerr)
		if rerr != nil {
			// A failed (or cancelled) refactor leaves the factor numerically
			// invalid: invalidate and unregister it so it can never serve a
			// solve again. In-flight solves holding this entry see f==nil.
			fe.f = nil
			s.dropEntry(fe)
			fe.mu.Unlock()
			s.writeErr(w, factorErrStatus(rerr), rerr)
			return
		}
		s.saveSnapshot(fe, m, fe.f)
		fe.mu.Unlock()
		refactored = true
		s.met.refactors.Add(1)
		s.met.refactorLat.Observe(time.Since(start))
		s.cost.Observe(entry.Plan.Exact.Flops, time.Since(start))
		break
	}

	plan := entry.Plan
	writeJSON(w, http.StatusOK, factorResponse{
		ID:         id,
		N:          m.N,
		NNZ:        m.NNZ(),
		NNZL:       plan.Exact.NZinL,
		Flops:      plan.Exact.Flops,
		CacheHit:   hit,
		Refactored: refactored,
		Shift:      shift,
		ElapsedMs:  float64(time.Since(start).Microseconds()) / 1e3,
	})
}

// factorErrStatus: numeric failures (non-SPD input) are the client's
// fault; transient infrastructure faults that survived the retries are the
// server's.
func factorErrStatus(err error) int {
	if st := errStatus(err); st != http.StatusInternalServerError {
		return st
	}
	if faultinject.IsTransient(err) {
		return http.StatusInternalServerError
	}
	return http.StatusUnprocessableEntity
}

// guardEntry runs op while the caller holds fe.mu for writing. If op
// panics, the entry is invalidated, unregistered, and unlocked before the
// panic continues to the recovery middleware — otherwise the wedged write
// lock would deadlock every later request for this pattern (the panic test
// in chaos_test.go found exactly that).
func (s *Server) guardEntry(fe *factorEntry, op func() error) error {
	defer func() {
		if rec := recover(); rec != nil {
			fe.f = nil
			s.dropEntry(fe)
			fe.mu.Unlock()
			panic(rec)
		}
	}()
	return op()
}

// claimEntry returns the factor entry for id, creating it if absent. When
// created is true the entry's write lock is held and fe.f is nil — the
// caller must set fe.f and unlock (or dropEntry on failure). This is the
// per-factor singleflight: a concurrent request for the same new pattern
// blocks on fe.mu instead of factoring twice.
func (s *Server) claimEntry(id string, n int, plan *core.Plan) (fe *factorEntry, created bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fe, ok := s.factors[id]; ok {
		s.lru.MoveToFront(fe.el)
		return fe, false
	}
	fe = &factorEntry{id: id, n: n, plan: plan, building: true}
	fe.bt = &batcher{s: s, fe: fe}
	fe.mu.Lock()
	s.factors[id] = fe
	fe.el = s.lru.PushFront(fe)
	// Evict from the cold end, skipping entries whose initial factorization
	// is still in flight — evicting those would 404 an id the server is
	// about to return.
	for el := s.lru.Back(); el != nil && len(s.factors) > s.cfg.MaxFactors; {
		victim := el.Value.(*factorEntry)
		el = el.Prev()
		if victim.building {
			continue
		}
		s.lru.Remove(victim.el)
		delete(s.factors, victim.id)
	}
	return fe, true
}

// markReady clears the eviction guard once the creator has published fe.f.
func (s *Server) markReady(fe *factorEntry) {
	s.mu.Lock()
	fe.building = false
	s.mu.Unlock()
}

// dropEntry unregisters exactly fe: the pointer comparison keeps a stale
// drop (after a failed build) from deleting a newer entry that a concurrent
// request re-created under the same id.
func (s *Server) dropEntry(fe *factorEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.factors[fe.id]; ok && cur == fe {
		s.lru.Remove(fe.el)
		delete(s.factors, fe.id)
	}
}

func (s *Server) lookup(id string) (*factorEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fe, ok := s.factors[id]
	if ok {
		s.lru.MoveToFront(fe.el)
	}
	return fe, ok
}

// factorLive reports whether id already has a registered factor entry,
// without promoting it in the LRU — used only to classify an incoming
// factor request as a refactor vs a cold factorization for admission.
func (s *Server) factorLive(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.factors[id]
	return ok
}

// factorBytesGate enforces Config.MaxFactorBytes before any symbolic work.
// exactBytes is the plan's exact nnz(L)×8 when the analysis is cached, 0
// otherwise — then the gate falls back to 8×nnz(tril(A)), a true lower
// bound since Cholesky fill only adds nonzeros to A's lower triangle.
func (s *Server) factorBytesGate(m *sparse.Matrix, exactBytes int64) (errorBody, bool) {
	if s.cfg.MaxFactorBytes <= 0 {
		return errorBody{}, false
	}
	est, kind := exactBytes, "exact"
	if est == 0 {
		est, kind = 8*trilNNZ(m), "lower bound"
	}
	if est <= s.cfg.MaxFactorBytes {
		return errorBody{}, false
	}
	return errorBody{
		Error: fmt.Sprintf("estimated factor size %d bytes (%s) exceeds the %d-byte budget", est, kind, s.cfg.MaxFactorBytes),
		Code:  "factor_too_large",
	}, true
}

// trilNNZ counts stored entries on or below the diagonal — the part of A
// that L must at least contain.
func trilNNZ(m *sparse.Matrix) int64 {
	var nnz int64
	for j := 0; j < m.N; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if m.RowInd[p] >= j {
				nnz++
			}
		}
	}
	return nnz
}

// tenantCacheGate rejects a factor request that would build a *new* plan
// while its tenant is already at its cached-bytes quota (requests reusing
// a cached analysis always pass — they add no bytes).
func (s *Server) tenantCacheGate(tenant string, m *sparse.Matrix) *admission.Rejection {
	lim := s.adm.Limits(tenant)
	if lim.MaxCacheBytes <= 0 {
		return nil
	}
	if _, ok := s.cache.Peek(m, s.planKey); ok {
		return nil
	}
	if used := s.cache.TenantBytes(tenant); used >= lim.MaxCacheBytes {
		return &admission.Rejection{
			Status: http.StatusTooManyRequests, Code: "tenant_quota",
			RetryAfter: 30 * time.Second,
			Message:    fmt.Sprintf("tenant %q holds %d cached plan bytes, at or over its %d-byte quota; evict by factoring fewer distinct patterns or raise the quota", tenant, used, lim.MaxCacheBytes),
		}
	}
	return nil
}

// ---- /v1/solve ----

type solveResponse struct {
	ID        string      `json:"id"`
	X         []float64   `json:"x,omitempty"`
	XS        [][]float64 `json:"xs,omitempty"`
	Batch     int         `json:"batch,omitempty"` // RHS count of the coalesced sweep
	ElapsedMs float64     `json:"elapsed_ms"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.met.solveRequests.Add(1)
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)
	if r.Method != http.MethodPost {
		s.writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	if s.isDraining() {
		s.writeErr(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	// Shed doomed requests on headers alone, before reading the body: a
	// flooding tenant's overflow must be rejected for microseconds of
	// CPU, not a full JSON parse, or the rejection path itself becomes
	// the overload. Admit re-applies the same gates authoritatively.
	if rej := s.adm.Precheck(tenantOf(r), admission.Interactive); rej != nil {
		s.writeRejection(w, rej)
		return
	}

	req, err := DecodeSolve(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	fe, ok := s.lookup(req.ID)
	if !ok {
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("unknown factor id %q", req.ID))
		return
	}
	tenant := tenantOf(r)

	start := time.Now()
	if req.B != nil {
		if err := validRHS(fe.n, req.B); err != nil {
			s.writeErr(w, http.StatusBadRequest, err)
			return
		}
		var out solveOutcome
		if s.cfg.BatchWindow > 0 {
			// Batched path: the tenant is charged (token bucket + brownout
			// gate) per request here; the coalesced sweep itself takes one
			// internal worker slot on behalf of the whole batch.
			if rej := s.adm.Charge(tenant, admission.Interactive); rej != nil {
				s.writeRejection(w, rej)
				return
			}
			out = fe.bt.submit(ctx, req.B)
		} else {
			out = s.solveDirect(ctx, fe, tenant, [][]float64{req.B})
		}
		if out.err != nil {
			s.writeErr(w, errStatus(out.err), out.err)
			return
		}
		writeJSON(w, http.StatusOK, solveResponse{
			ID: req.ID, X: out.x, Batch: out.batch,
			ElapsedMs: float64(time.Since(start).Microseconds()) / 1e3,
		})
		return
	}

	for i, b := range req.BS {
		if err := validRHS(fe.n, b); err != nil {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("rhs %d: %w", i, err))
			return
		}
	}
	out := s.solveDirect(ctx, fe, tenant, req.BS)
	if out.err != nil {
		s.writeErr(w, errStatus(out.err), out.err)
		return
	}
	writeJSON(w, http.StatusOK, solveResponse{
		ID: req.ID, XS: out.xs,
		ElapsedMs: float64(time.Since(start).Microseconds()) / 1e3,
	})
}

// solveDirect runs one SolveMany on the worker pool, bypassing the batcher
// (multi-RHS requests are already batches). The solve's cost estimate is
// ~4 flops per nonzero of L per right-hand side (forward + back
// substitution), priced through the same observed-throughput model as
// factorizations so deadline-infeasible solves shed instead of queueing.
func (s *Server) solveDirect(ctx context.Context, fe *factorEntry, tenant string, bs [][]float64) solveOutcome {
	rel, rej, err := s.adm.Admit(ctx, admission.Request{
		Tenant:   tenant,
		Priority: admission.Interactive,
		Cost:     s.solveCost(fe, len(bs)),
		Deadline: admissionDeadline(ctx),
	})
	if rej != nil {
		return solveOutcome{err: rej}
	}
	if err != nil {
		return solveOutcome{err: err}
	}
	defer rel()
	start := time.Now()
	var xs [][]float64
	err = s.withRetry(ctx, func() error {
		if err := faultinject.Fire("server.solve"); err != nil {
			return err
		}
		fe.mu.RLock()
		defer fe.mu.RUnlock() // deferred so a solve panic cannot wedge the read lock
		if fe.f == nil {
			return errFactorInvalid
		}
		var serr error
		xs, serr = fe.f.SolveMany(bs)
		return serr
	})
	s.met.solveLat.Observe(time.Since(start))
	if err != nil {
		return solveOutcome{err: err}
	}
	s.met.solvedRHS.Add(int64(len(bs)))
	if len(bs) == 1 {
		return solveOutcome{x: xs[0], batch: 1}
	}
	return solveOutcome{xs: xs}
}

// solveCost estimates a SolveMany's execution time: triangular solves do
// roughly 4·nnz(L) flops per right-hand side, converted through the
// observed throughput model. A deliberately rough figure — it only has to
// be the right order of magnitude for deadline shedding to beat silently
// burning the deadline in the queue.
func (s *Server) solveCost(fe *factorEntry, nrhs int) time.Duration {
	if fe.plan == nil {
		return 0
	}
	return s.cost.Estimate(4 * fe.plan.Exact.NZinL * int64(nrhs))
}

// ---- /healthz and /metrics ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.met.healthzRequests.Add(1)
	state := s.adm.State()
	body := map[string]string{"status": "ok", "admission": state.String()}
	if s.isDraining() {
		body["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	// Brownout keeps /healthz at 200 — the server is degraded, not dead,
	// and a 503 here would make load balancers yank a node that is still
	// serving interactive traffic. The state string is the signal.
	writeJSON(w, http.StatusOK, body)
}

// metricsDoc is the /metrics JSON document.
type metricsDoc struct {
	Requests struct {
		Factor  int64 `json:"factor"`
		Solve   int64 `json:"solve"`
		Healthz int64 `json:"healthz"`
		Metrics int64 `json:"metrics"`
	} `json:"requests"`
	InFlight int64 `json:"in_flight"`
	Rejected int64 `json:"rejected"`
	Errors   int64 `json:"errors"`
	Panics   int64 `json:"panics"`
	Retries  int64 `json:"retries"`
	Breaker  struct {
		Trips     int64 `json:"trips"`
		FastFails int64 `json:"fast_fails"`
		Open      int   `json:"open"` // patterns currently failing fast
	} `json:"breaker"`
	Factors   int64           `json:"factors"`
	Refactors int64           `json:"refactors"`
	SolvedRHS int64           `json:"solved_rhs"`
	Batches   int64           `json:"batches"`
	BatchedR  int64           `json:"batched_rhs"`
	Cache     plancache.Stats `json:"plan_cache"`
	LiveFac   int             `json:"live_factors"`
	Store     *storeDoc       `json:"store,omitempty"` // absent without -store-dir
	Admission admission.Stats `json:"admission"`       // brownout state, queues, per-tenant counters

	Latency struct {
		Factor   latencyJSON `json:"factor"`
		Refactor latencyJSON `json:"refactor"`
		Solve    latencyJSON `json:"solve"`
	} `json:"latency"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.metricsRequests.Add(1)
	var doc metricsDoc
	doc.Requests.Factor = s.met.factorRequests.Load()
	doc.Requests.Solve = s.met.solveRequests.Load()
	doc.Requests.Healthz = s.met.healthzRequests.Load()
	doc.Requests.Metrics = s.met.metricsRequests.Load()
	doc.InFlight = s.met.inFlight.Load()
	doc.Rejected = s.met.rejected.Load()
	doc.Errors = s.met.errors.Load()
	doc.Factors = s.met.factors.Load()
	doc.Refactors = s.met.refactors.Load()
	doc.SolvedRHS = s.met.solvedRHS.Load()
	doc.Batches = s.met.batches.Load()
	doc.BatchedR = s.met.batched.Load()
	doc.Panics = s.met.panics.Load()
	doc.Retries = s.met.retries.Load()
	doc.Breaker.Trips = s.met.breakerTrips.Load()
	doc.Breaker.FastFails = s.met.breakerFastFails.Load()
	doc.Cache = s.cache.Stats()
	s.mu.Lock()
	doc.LiveFac = len(s.factors)
	now := time.Now()
	for _, bs := range s.breakers {
		if !bs.until.IsZero() && now.Before(bs.until) {
			doc.Breaker.Open++
		}
	}
	s.mu.Unlock()
	doc.Admission = s.adm.Snapshot()
	doc.Latency.Factor = latencySnapshot(&s.met.factorLat)
	doc.Latency.Refactor = latencySnapshot(&s.met.refactorLat)
	doc.Latency.Solve = latencySnapshot(&s.met.solveLat)
	if s.st != nil || s.storeErr != nil {
		sd := &storeDoc{
			Writes:       s.met.snapWrites.Load(),
			WriteErrors:  s.met.snapErrors.Load(),
			Dropped:      s.met.snapDropped.Load(),
			Skipped:      s.met.snapSkipped.Load(),
			WarmRestored: s.met.warmRestored.Load(),
		}
		if s.storeErr != nil {
			sd.OpenError = s.storeErr.Error()
		}
		if s.st != nil {
			sd.Stats = s.st.Stats()
		}
		doc.Store = sd
	}
	writeJSON(w, http.StatusOK, doc)
}

// storeDoc is the /metrics section for the durable snapshot store.
type storeDoc struct {
	Writes       int64       `json:"writes"`        // write-behind snapshots committed
	WriteErrors  int64       `json:"write_errors"`  // snapshot writes that failed
	Dropped      int64       `json:"dropped"`       // snapshots dropped (queue full)
	Skipped      int64       `json:"skipped"`       // snapshots skipped by the interval throttle
	WarmRestored int64       `json:"warm_restored"` // factors restored by the last WarmStart
	OpenError    string      `json:"open_error,omitempty"`
	Stats        store.Stats `json:"stats"`
}

// CacheStats exposes the plan-cache counters (used by tests and the
// service benchmark; HTTP clients read them from /metrics).
func (s *Server) CacheStats() plancache.Stats { return s.cache.Stats() }
