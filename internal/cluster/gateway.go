package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"blockfanout/internal/admission"
	"blockfanout/internal/blocks"
	"blockfanout/internal/cluster/wire"
	"blockfanout/internal/core"
	"blockfanout/internal/fanout"
	"blockfanout/internal/faultinject"
	"blockfanout/internal/kernels"
	"blockfanout/internal/machine"
	"blockfanout/internal/mapping"
	"blockfanout/internal/order"
	"blockfanout/internal/plancache"
	"blockfanout/internal/sched"
	"blockfanout/internal/server"
	"blockfanout/internal/sparse"
	"blockfanout/internal/store"
)

// GatewayConfig configures the cluster gateway.
type GatewayConfig struct {
	// Procs is the virtual processor count of every job's block mapping
	// (default 8); the speed-aware partition spreads these over the nodes.
	Procs int
	// Plan-construction options, shared with every node (default: uniform
	// blocking, MinDegree ordering, work-stealing engine).
	BlockSize      int
	Blocking       blocks.Strategy
	Ordering       order.Method
	Exec           fanout.Mode
	AmalgThreshold float64
	// Replicas is how many assembly targets hold the factor beyond the
	// primary (default 1), for solve failover.
	Replicas int
	// MinNodes gates factor requests until this many nodes joined
	// (default 1).
	MinNodes int
	// HeartbeatInterval is the heartbeat cadence the fleet is expected to
	// keep (default 500ms), and HeartbeatMisses is how many consecutive
	// intervals of silence declare a node dead (default 4). Together they
	// derive HeartbeatTimeout when it is unset.
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// HeartbeatTimeout declares a silent node dead. Unset, it is
	// HeartbeatInterval × HeartbeatMisses (default 2s); setting it directly
	// overrides the derivation.
	HeartbeatTimeout time.Duration
	// SendTimeout bounds every control-plane frame write to a node, so a
	// wedged peer connection fails the send instead of blocking the gateway
	// (default 5s).
	SendTimeout time.Duration
	// FactorRetries is how many times a run whose epoch failed on an
	// infrastructure (non-pivot) error is restarted with jittered
	// exponential backoff before the request fails (default 2; negative
	// disables). Pivot breakdowns are numeric facts and are never retried.
	FactorRetries int
	// RetryBackoff is the base backoff of the first epoch retry; it doubles
	// per retry with ±50% jitter (default 50ms).
	RetryBackoff time.Duration
	// ReadyTimeout bounds the gap between "every node reported Done" and
	// "an assembly target holds the full factor". When it expires the
	// epoch is restarted: the only way that state persists is a block
	// frame lost en route to every assembly target (default 5s).
	ReadyTimeout time.Duration
	// DisableLocalFallback turns off degraded mode: by default, when fewer
	// than MinNodes are alive the gateway factors locally (single-node,
	// in-process) and keeps serving solves, reporting "degraded" from
	// /healthz instead of erroring.
	DisableLocalFallback bool
	// StoreDir, when non-empty, enables the durable snapshot store: plans
	// (and degraded-mode local factors) persist across gateway restarts via
	// WarmStart.
	StoreDir string
	// RequestTimeout bounds each HTTP request's work (default 120s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 512 MiB).
	MaxBodyBytes int64
	// CacheEntries/CacheBytes budget the gateway's plan cache.
	CacheEntries int
	CacheBytes   int64
	// Admission-control knobs, mirroring the serving tier: requests carry a
	// tenant identity (X-Tenant header, "default" otherwise) metered by
	// per-tenant token buckets and in-flight quotas, and wait in a weighted
	// priority queue (solves > refactors > cold factorizations) in front of
	// AdmissionWorkers concurrent coordinations (default 16). ShedAt /
	// RejectAt and the memory watermarks drive the brownout state machine;
	// zero values take the admission package's defaults, and a zero
	// TenantDefault leaves unnamed tenants unmetered.
	AdmissionWorkers int
	QueueDepth       int
	TenantDefault    admission.TenantLimits
	Tenants          map[string]admission.TenantLimits
	ShedAt           float64
	RejectAt         float64
	MemSoftBytes     uint64
	MemHardBytes     uint64
	// Logf receives progress lines; default log.Printf.
	Logf func(format string, args ...any)
}

func (c *GatewayConfig) fillDefaults() {
	if c.Procs <= 0 {
		c.Procs = 8
	}
	if c.BlockSize <= 0 {
		c.BlockSize = core.DefaultBlockSize
	}
	if c.Ordering == 0 {
		c.Ordering = order.MinDegree
	}
	if c.Replicas < 0 {
		c.Replicas = 0
	} else if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.MinNodes <= 0 {
		c.MinNodes = 1
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 4
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = time.Duration(c.HeartbeatMisses) * c.HeartbeatInterval
	}
	if c.SendTimeout <= 0 {
		c.SendTimeout = 5 * time.Second
	}
	switch {
	case c.FactorRetries == 0:
		c.FactorRetries = 2
	case c.FactorRetries < 0:
		c.FactorRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.ReadyTimeout <= 0 {
		c.ReadyTimeout = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 512 << 20
	}
	if c.AdmissionWorkers <= 0 {
		c.AdmissionWorkers = 16
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// member is one joined node.
type member struct {
	idx      int
	id       string
	dataAddr string
	speed    float64

	sendMu      sync.Mutex
	conn        net.Conn
	sendTimeout time.Duration

	mu       sync.Mutex
	alive    bool
	lastBeat time.Time
	stats    wire.NodeStats
	pending  map[uint64]chan *wire.SolveResp // in-flight solves by seq
}

func (m *member) send(f wire.Frame) error {
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	if m.conn == nil {
		return fmt.Errorf("cluster: node %s disconnected", m.id)
	}
	// A per-message write deadline: a wedged or partitioned peer fails this
	// send (and gets declared dead by the caller's error handling or the
	// watchdog) instead of blocking the gateway behind a full TCP window.
	if m.sendTimeout > 0 {
		m.conn.SetWriteDeadline(time.Now().Add(m.sendTimeout))
		defer m.conn.SetWriteDeadline(time.Time{})
	}
	return wire.WriteFrame(m.conn, f)
}

func (m *member) isAlive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.alive
}

// gwJob is one pattern's distributed factorization state on the gateway.
type gwJob struct {
	id string

	// reqMu serializes factor requests per pattern (a run must finish or
	// fail before the next re-shards the same job).
	reqMu sync.Mutex

	plan  *core.Plan
	pr    *sched.Program
	loads []int64 // per-virtual-processor flops

	mu       sync.Mutex
	runID    uint64
	epoch    uint32
	members  []*member // participant index → member (fixed per run)
	nodeOf   []uint16
	primary  int
	replicas []int
	doneOK   map[int]bool
	failures []*wire.Done
	ready    map[int]bool
	frontier uint32
	notify   chan struct{}
	solvable bool
	// Admission metadata of the current run, stamped into every StartJob so
	// nodes can abort work whose requester already gave up.
	tenant        string
	deadlineMicro int64
	val           []float64 // current run's matrix values (for failover restarts)
	// localF is the degraded-mode factor: built in-process when the fleet
	// is below MinNodes (or restored by WarmStart), it serves solves when no
	// assembly node holds the distributed factor. Cleared at the start of
	// each factor request so it can never serve stale values.
	localF *core.Factor
}

func (j *gwJob) wake() {
	select {
	case j.notify <- struct{}{}:
	default:
	}
}

// Gateway shards factor ownership across worker nodes and fails running
// factorizations over to buddies when a node dies. Mount Handler behind
// HTTP; Serve accepts node control connections.
type Gateway struct {
	cfg   GatewayConfig
	cache *plancache.Cache
	adm   *admission.Controller

	planOpts core.Options
	planKey  uint64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	ln     net.Listener

	mu      sync.Mutex
	members []*member
	byID    map[string]int
	jobs    map[string]*gwJob

	runSeq   atomic.Uint64
	solveSeq atomic.Uint64

	// Durable snapshot store (nil when cfg.StoreDir is empty).
	st       *store.Store
	storeErr error

	metFactorReqs   atomic.Uint64
	metSolveReqs    atomic.Uint64
	metFailovers    atomic.Uint64
	metEpochs       atomic.Uint64
	metEpochRetries atomic.Uint64
	metLocalFactors atomic.Uint64
	metLocalSolves  atomic.Uint64
	metWarmPlans    atomic.Uint64
}

// NewGateway builds a gateway; call Serve with a listener for the node
// control plane.
func NewGateway(cfg GatewayConfig) *Gateway {
	cfg.fillDefaults()
	opts := core.Options{
		BlockSize:      cfg.BlockSize,
		Ordering:       cfg.Ordering,
		Blocking:       cfg.Blocking,
		AmalgThreshold: cfg.AmalgThreshold,
		Exec:           cfg.Exec,
	}
	g := &Gateway{
		cfg:   cfg,
		cache: plancache.New(plancache.Config{MaxEntries: cfg.CacheEntries, MaxBytes: cfg.CacheBytes}),
		adm: admission.New(admission.Config{
			Workers:      cfg.AdmissionWorkers,
			QueueDepth:   cfg.QueueDepth,
			Default:      cfg.TenantDefault,
			Tenants:      cfg.Tenants,
			ShedAt:       cfg.ShedAt,
			RejectAt:     cfg.RejectAt,
			MemSoftBytes: cfg.MemSoftBytes,
			MemHardBytes: cfg.MemHardBytes,
		}),
		planOpts: opts,
		planKey:  opts.ConfigKey(),
		byID:     make(map[string]int),
		jobs:     make(map[string]*gwJob),
	}
	if cfg.StoreDir != "" {
		g.st, g.storeErr = store.Open(cfg.StoreDir)
		if g.storeErr != nil {
			cfg.Logf("cluster gateway: snapshot store disabled: %v", g.storeErr)
		}
	}
	return g
}

// Serve accepts node control connections on ln until ctx is cancelled.
func (g *Gateway) Serve(ctx context.Context, ln net.Listener) error {
	g.ctx, g.cancel = context.WithCancel(ctx)
	defer g.cancel()
	g.ln = ln
	stop := context.AfterFunc(g.ctx, func() { ln.Close() })
	defer stop()
	g.wg.Add(1)
	go g.watchdog()
	for {
		conn, err := ln.Accept()
		if err != nil {
			g.cancel()
			g.wg.Wait()
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		g.wg.Add(1)
		go g.nodeConn(faultinject.WrapConn("cluster.gw.ctrl", conn))
	}
}

// nodeConn handles one node's control connection: Hello registers it, then
// heartbeats, Done, FactorReady, and SolveResp frames flow until the
// connection drops — which declares the node dead immediately.
func (g *Gateway) nodeConn(conn net.Conn) {
	defer g.wg.Done()
	defer conn.Close()
	stop := context.AfterFunc(g.ctx, func() { conn.Close() })
	defer stop()

	conn.SetReadDeadline(time.Now().Add(2 * g.cfg.HeartbeatTimeout))
	f, err := wire.ReadFrame(conn)
	if err != nil || f.Type != wire.THello {
		g.cfg.Logf("cluster gateway: connection from %v did not Hello", conn.RemoteAddr())
		return
	}
	m := g.register(f.Hello, conn)
	g.cfg.Logf("cluster gateway: node %s joined (data %s, speed %.2f)", m.id, m.dataAddr, m.speed)
	for {
		// A read deadline well past the heartbeat timeout: the watchdog is
		// what declares silence, but a fully wedged connection must also
		// unblock this goroutine eventually.
		conn.SetReadDeadline(time.Now().Add(2 * g.cfg.HeartbeatTimeout))
		f, err := wire.ReadFrame(conn)
		if err != nil {
			g.markDead(m, fmt.Sprintf("control connection lost: %v", err))
			return
		}
		switch f.Type {
		case wire.THeartbeat:
			m.mu.Lock()
			m.lastBeat = time.Now()
			m.stats = f.Heartbeat.Stats
			m.mu.Unlock()
		case wire.TDone:
			g.handleDone(m, f.Done)
		case wire.TFactorReady:
			g.handleReady(m, f.FactorReady)
		case wire.TSolveResp:
			m.mu.Lock()
			ch := m.pending[f.SolveResp.Seq]
			delete(m.pending, f.SolveResp.Seq)
			m.mu.Unlock()
			if ch != nil {
				ch <- f.SolveResp
			}
		default:
			g.cfg.Logf("cluster gateway: unexpected frame %v from node %s", f.Type, m.id)
		}
	}
}

func (g *Gateway) register(h *wire.Hello, conn net.Conn) *member {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i, ok := g.byID[h.ID]; ok {
		// Rejoin: reuse the slot so participant indices stay stable.
		m := g.members[i]
		m.sendMu.Lock()
		m.conn = conn
		m.sendMu.Unlock()
		m.mu.Lock()
		m.dataAddr, m.speed = h.DataAddr, h.Speed
		m.alive, m.lastBeat = true, time.Now()
		m.mu.Unlock()
		return m
	}
	m := &member{
		idx: len(g.members), id: h.ID, dataAddr: h.DataAddr, speed: h.Speed,
		conn: conn, alive: true, lastBeat: time.Now(),
		sendTimeout: g.cfg.SendTimeout,
		pending:     make(map[uint64]chan *wire.SolveResp),
	}
	g.members = append(g.members, m)
	g.byID[h.ID] = m.idx
	return m
}

func (g *Gateway) watchdog() {
	defer g.wg.Done()
	t := time.NewTicker(g.cfg.HeartbeatTimeout / 4)
	defer t.Stop()
	for {
		select {
		case <-g.ctx.Done():
			return
		case <-t.C:
			g.mu.Lock()
			members := append([]*member(nil), g.members...)
			g.mu.Unlock()
			for _, m := range members {
				m.mu.Lock()
				silent := m.alive && time.Since(m.lastBeat) > g.cfg.HeartbeatTimeout
				m.mu.Unlock()
				if silent {
					g.markDead(m, "heartbeat timeout")
				}
			}
		}
	}
}

// markDead declares a node dead and fails over every job it participates
// in: its virtual processors move to the buddy, assembly targets are
// re-picked if needed, and the epoch restarts on the survivors.
func (g *Gateway) markDead(m *member, reason string) {
	m.mu.Lock()
	was := m.alive
	m.alive = false
	m.mu.Unlock()
	if !was {
		return
	}
	g.cfg.Logf("cluster gateway: node %s dead (%s)", m.id, reason)
	g.mu.Lock()
	jobs := make([]*gwJob, 0, len(g.jobs))
	for _, j := range g.jobs {
		jobs = append(jobs, j)
	}
	g.mu.Unlock()
	for _, j := range jobs {
		g.failover(j, m)
	}
}

// failover restarts j's current run without dead, if dead participates.
func (g *Gateway) failover(j *gwJob, dead *member) {
	j.mu.Lock()
	defer j.mu.Unlock()
	deadIdx := -1
	alive := make([]bool, len(j.members))
	for i, m := range j.members {
		alive[i] = m.isAlive()
		if m == dead {
			deadIdx = i
		}
	}
	if deadIdx < 0 || j.runID == 0 || j.solvable || len(j.failures) > 0 {
		// Node not in this run, run already completed (solve routing
		// handles assembly-target death separately), or run already
		// failed — nothing to restart.
		j.wake()
		return
	}
	anyAlive := false
	for _, a := range alive {
		anyAlive = anyAlive || a
	}
	if !anyAlive {
		j.failures = append(j.failures, &wire.Done{
			JobID: j.id, RunID: j.runID, Epoch: j.epoch, Err: "all nodes dead",
		})
		j.wake()
		return
	}

	// Buddy recovery over participant indices, shared with the simulator's
	// fault plan: every processor of a dead node moves to the next
	// survivor. Cascading failures compose (buddy-of-a-buddy).
	for p, nd := range j.nodeOf {
		if !alive[nd] {
			j.nodeOf[p] = uint16(machine.Buddy(int32(nd), alive))
		}
	}
	// Re-pick assembly targets among survivors, keyed by the same ring so
	// surviving targets stay targets.
	ids := make([]string, len(j.members))
	for i, m := range j.members {
		ids[i] = m.id
	}
	asm := buildRing(ids).pick(fnv1a(j.id), 1+g.cfg.Replicas, func(i int) bool { return alive[i] })
	j.primary, j.replicas = asm[0], asm[1:]

	// Frontier: the minimum completed-column watermark reported by the
	// last epoch's Done frames (observability; restart granularity is the
	// per-block predone set each node keeps).
	j.epoch++
	g.metFailovers.Add(1)
	g.metEpochs.Add(1)
	j.doneOK = make(map[int]bool)
	for i := range j.ready {
		if !alive[i] {
			delete(j.ready, i)
		}
	}
	g.cfg.Logf("cluster gateway: job %s failing over to epoch %d (primary %s)", j.id, j.epoch, j.members[j.primary].id)
	g.broadcastStartLocked(j)
	j.wake()
}

func (j *gwJob) allDoneLocked() bool {
	for i, m := range j.members {
		if m.isAlive() && !j.doneOK[i] {
			return false
		}
	}
	return true
}

// broadcastStartLocked sends the current epoch's StartJob to every alive
// participant. Caller holds j.mu.
func (g *Gateway) broadcastStartLocked(j *gwJob) {
	colptr, rowind := matrixToWire(j.plan.A)
	parts := make([]wire.Participant, len(j.members))
	for i, m := range j.members {
		m.mu.Lock()
		parts[i] = wire.Participant{ID: m.id, DataAddr: m.dataAddr, Alive: m.alive}
		m.mu.Unlock()
	}
	reps := make([]uint16, len(j.replicas))
	for i, r := range j.replicas {
		reps[i] = uint16(r)
	}
	sj := &wire.StartJob{
		JobID: j.id, RunID: j.runID, Epoch: j.epoch,
		N: uint32(j.plan.A.N), ColPtr: colptr, RowInd: rowind, Val: j.val,
		BlockSize: uint32(g.cfg.BlockSize),
		Blocking:  uint8(g.cfg.Blocking), Ordering: uint8(g.cfg.Ordering),
		Exec: uint8(g.cfg.Exec), AmalgThr: g.cfg.AmalgThreshold,
		Procs: uint32(g.cfg.Procs), NodeOf: append([]uint16(nil), j.nodeOf...),
		Participants: parts, Primary: uint16(j.primary), Replicas: reps,
		Frontier: j.frontier,
		Tenant:   j.tenant, DeadlineUnixMicro: j.deadlineMicro,
	}
	for i, m := range j.members {
		if !parts[i].Alive {
			continue
		}
		if err := m.send(wire.Frame{Type: wire.TStartJob, StartJob: sj}); err != nil {
			g.cfg.Logf("cluster gateway: start to %s: %v", m.id, err)
		}
	}
}

func (g *Gateway) jobByID(id string) *gwJob {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.jobs[id]
}

func (g *Gateway) handleDone(m *member, dn *wire.Done) {
	// Done frames carry a stats snapshot fresher than the last heartbeat;
	// fold it in so /metrics reflects a job the moment it completes.
	m.mu.Lock()
	m.stats = dn.Stats
	m.mu.Unlock()
	j := g.jobByID(dn.JobID)
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if dn.RunID != j.runID || dn.Epoch != j.epoch {
		return
	}
	pidx := -1
	for i, pm := range j.members {
		if pm == m {
			pidx = i
		}
	}
	if pidx < 0 {
		return
	}
	if dn.Watermark > j.frontier {
		j.frontier = dn.Watermark
	}
	if dn.OK {
		j.doneOK[pidx] = true
	} else {
		j.failures = append(j.failures, dn)
	}
	j.wake()
}

func (g *Gateway) handleReady(m *member, fr *wire.FactorReady) {
	j := g.jobByID(fr.JobID)
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if fr.RunID != j.runID {
		return
	}
	for i, pm := range j.members {
		if pm == m {
			j.ready[i] = true
		}
	}
	j.wake()
}

// ---- HTTP API ----

// Handler returns the gateway's HTTP mux: the serving tier's /v1 surface
// backed by the cluster instead of an in-process executor.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/factor", g.handleFactor)
	mux.HandleFunc("/v1/solve", g.handleSolve)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/metrics", g.handleMetrics)
	return mux
}

type gwError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"` // stable admission codes ("tenant_rate", "brownout", ...)
	// RetryAfterS mirrors the Retry-After header on 429/503 rejections.
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (g *Gateway) writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, gwError{Error: err.Error()})
}

// gwTenantOf extracts the request's tenant identity.
func gwTenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return admission.DefaultTenant
}

// writeRejection renders an admission rejection: the Retry-After header
// (whole seconds, as HTTP requires) plus the envelope carrying the stable
// code and the same hint in-body.
func (g *Gateway) writeRejection(w http.ResponseWriter, rej *admission.Rejection) {
	ra := rej.RetryAfter
	if ra <= 0 {
		ra = time.Second
	}
	secs := int64((ra + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, rej.Status, gwError{
		Error: rej.Message, Code: rej.Code, RetryAfterS: float64(secs),
	})
}

// admit runs the gateway's admission gate; it reports whether the caller
// may proceed, having already written the response when not.
func (g *Gateway) admit(ctx context.Context, w http.ResponseWriter, req admission.Request) (func(), bool) {
	release, rej, err := g.adm.Admit(ctx, req)
	if rej != nil {
		g.writeRejection(w, rej)
		return nil, false
	}
	if err != nil {
		// The requester gave up while queued.
		g.writeErr(w, http.StatusGatewayTimeout, err)
		return nil, false
	}
	return release, true
}

type gwFactorResponse struct {
	ID       string `json:"id"`
	N        int    `json:"n"`
	NNZ      int    `json:"nnz"`
	NNZL     int64  `json:"nnz_l"`
	Flops    int64  `json:"flops"`
	CacheHit bool   `json:"cache_hit"`
	Nodes    int    `json:"nodes"`
	Epochs   uint32 `json:"epochs"` // failover restarts this run survived
	Primary  string `json:"primary"`
	// Degraded is true when the fleet was unavailable and the factor was
	// computed locally on the gateway (Nodes 0, Primary "local").
	Degraded  bool    `json:"degraded,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

func (g *Gateway) handleFactor(w http.ResponseWriter, r *http.Request) {
	g.metFactorReqs.Add(1)
	if r.Method != http.MethodPost {
		g.writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	// Shed doomed requests before parsing the matrix body; the class is
	// unknowable until the pattern hash is, so precheck as Refactor (the
	// lenient choice — Admit below re-applies the gates with the real
	// class).
	if rej := g.adm.Precheck(gwTenantOf(r), admission.Refactor); rej != nil {
		g.writeRejection(w, rej)
		return
	}
	m, err := server.ReadMatrix(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes), r.Header.Get("Content-Type"))
	if err != nil {
		g.writeErr(w, http.StatusBadRequest, err)
		return
	}
	// A pattern the cluster already holds is a refactor (values reload on a
	// cached plan); an unknown one is a cold factorization and queues behind
	// everything else under load.
	tenant := gwTenantOf(r)
	pri := admission.Cold
	if j := g.jobByID(fmt.Sprintf("%016x", m.PatternHash())); j != nil {
		pri = admission.Refactor
	}
	deadline, _ := ctx.Deadline()
	release, ok := g.admit(ctx, w, admission.Request{
		Tenant: tenant, Priority: pri, Deadline: deadline,
	})
	if !ok {
		return
	}
	defer release()
	start := time.Now()
	resp, code, err := g.factor(ctx, m, tenant)
	if err != nil {
		g.writeErr(w, code, err)
		return
	}
	resp.ElapsedMs = float64(time.Since(start).Microseconds()) / 1e3
	writeJSON(w, http.StatusOK, resp)
}

// factor runs one distributed factorization to completion (through any
// failovers) and returns the response.
func (g *Gateway) factor(ctx context.Context, m *sparse.Matrix, tenant string) (*gwFactorResponse, int, error) {
	id := fmt.Sprintf("%016x", m.PatternHash())
	entry, hit, err := g.cache.GetOrBuild(m, g.planKey, func() (*core.Plan, sched.Assignment, error) {
		plan, err := core.NewPlan(m, g.planOpts)
		if err != nil {
			return nil, sched.Assignment{}, err
		}
		a, _ := buildSchedule(plan, g.cfg.Procs)
		return plan, a, nil
	})
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}

	g.mu.Lock()
	j, ok := g.jobs[id]
	if !ok {
		j = &gwJob{id: id, notify: make(chan struct{}, 1)}
		g.jobs[id] = j
	}
	g.mu.Unlock()

	j.reqMu.Lock()
	defer j.reqMu.Unlock()

	if j.plan != nil && !j.plan.A.SamePattern(m) {
		return nil, http.StatusConflict, fmt.Errorf("factor id %s is held by a different sparsity pattern (hash collision)", id)
	}
	if j.plan == nil {
		j.plan = entry.Plan
		j.pr = sched.Build(entry.Plan.BS, entry.Assign)
		j.loads = procLoads(j.pr)
	}

	// Snapshot alive members as this run's fixed participant list.
	g.mu.Lock()
	var parts []*member
	for _, mm := range g.members {
		if mm.isAlive() {
			parts = append(parts, mm)
		}
	}
	g.mu.Unlock()
	if len(parts) < g.cfg.MinNodes {
		// Partitioned from (or never had) the fleet: degrade to a local
		// single-node factorization instead of erroring, unless disabled.
		if !g.cfg.DisableLocalFallback {
			return g.factorLocal(ctx, j, entry, m, hit)
		}
		return nil, http.StatusServiceUnavailable,
			fmt.Errorf("cluster has %d nodes, need %d", len(parts), g.cfg.MinNodes)
	}

	j.mu.Lock()
	j.localF = nil // never serve stale values if this run changes them
	j.tenant = tenant
	j.deadlineMicro = 0
	if dl, ok := ctx.Deadline(); ok {
		j.deadlineMicro = dl.UnixMicro()
	}
	j.members = parts
	j.runID = g.runSeq.Add(1)
	j.epoch = 0
	j.frontier = 0
	j.val = m.Val
	j.doneOK = make(map[int]bool)
	j.failures = nil
	j.ready = make(map[int]bool)
	j.solvable = false
	nodeOf, perr := g.partitionLocked(j)
	if perr != nil {
		// A participant advertised an unusable speed (zero, negative, or
		// non-finite): refuse loudly instead of silently piling every
		// processor onto whichever node the degenerate arithmetic favored.
		j.mu.Unlock()
		return nil, http.StatusServiceUnavailable,
			fmt.Errorf("cannot partition processors across nodes: %w", perr)
	}
	j.nodeOf = nodeOf
	ids := make([]string, len(parts))
	for i, mm := range parts {
		ids[i] = mm.id
	}
	asm := buildRing(ids).pick(fnv1a(id), 1+g.cfg.Replicas, func(i int) bool { return parts[i].isAlive() })
	j.primary, j.replicas = asm[0], asm[1:]
	g.metEpochs.Add(1)
	g.broadcastStartLocked(j)
	runID := j.runID
	j.mu.Unlock()

	// Wait for every (surviving) participant's Done plus at least one
	// assembly target holding the full factor. Failovers reset the done
	// set; failures surface ranked (lowest pivot coordinates win, matching
	// the deterministic contract of the in-process executor). Epochs felled
	// by infrastructure (non-pivot) errors restart with jittered
	// exponential backoff; when the whole fleet is gone the request
	// degrades to a local factorization.
	retries := 0
	for {
		j.mu.Lock()
		if j.runID != runID {
			j.mu.Unlock()
			return nil, http.StatusConflict, errors.New("superseded by a newer factor request")
		}
		if len(j.failures) > 0 {
			fail := bestFailure(j.failures)
			if fail.HasPivot {
				j.mu.Unlock()
				g.abort(j, runID, fail.Err)
				return nil, http.StatusUnprocessableEntity, &kernels.PivotError{
					Block: int(fail.PivotBlock), Row: int(fail.PivotRow), Pivot: fail.Pivot,
				}
			}
			if strings.Contains(fail.Err, errRequesterDeadline.Error()) {
				// A node abandoned the epoch because the stamped deadline
				// passed. Retrying cannot beat an expired clock: answer 504.
				j.mu.Unlock()
				g.abort(j, runID, fail.Err)
				return nil, http.StatusGatewayTimeout, errors.New(fail.Err)
			}
			anyAlive := false
			for _, mm := range j.members {
				anyAlive = anyAlive || mm.isAlive()
			}
			if !anyAlive && !g.cfg.DisableLocalFallback {
				j.mu.Unlock()
				g.cfg.Logf("cluster gateway: job %s lost every node; degrading to local factorization", j.id)
				return g.factorLocal(ctx, j, entry, m, hit)
			}
			if anyAlive && retries < g.cfg.FactorRetries {
				retries++
				j.failures = nil
				j.doneOK = make(map[int]bool)
				j.epoch++
				g.metEpochs.Add(1)
				g.metEpochRetries.Add(1)
				epoch := j.epoch
				j.mu.Unlock()
				delay := jitterBackoff(g.cfg.RetryBackoff, retries)
				g.cfg.Logf("cluster gateway: job %s epoch failed (%s); retry %d in %v as epoch %d",
					j.id, fail.Err, retries, delay, epoch)
				select {
				case <-ctx.Done():
					g.abort(j, runID, "request cancelled")
					return nil, http.StatusGatewayTimeout, ctx.Err()
				case <-time.After(delay):
				}
				j.mu.Lock()
				if j.runID == runID {
					g.broadcastStartLocked(j)
				}
				j.mu.Unlock()
				continue
			}
			j.mu.Unlock()
			g.abort(j, runID, fail.Err)
			return nil, http.StatusInternalServerError, errors.New(fail.Err)
		}
		if j.allDoneLocked() && len(j.ready) > 0 {
			j.solvable = true
			epochs := j.epoch
			primary := j.members[j.primary].id
			nodes := len(j.members)
			j.mu.Unlock()
			plan := j.plan
			// Persist a plan snapshot (matrix + config, no blocks): a
			// restarted gateway skips ordering and symbolic analysis for
			// this pattern; the factor itself lives on the nodes.
			g.saveSnapshot(m, nil)
			return &gwFactorResponse{
				ID: id, N: m.N, NNZ: m.NNZ(),
				NNZL: plan.Exact.NZinL, Flops: plan.Exact.Flops,
				CacheHit: hit, Nodes: nodes, Epochs: epochs, Primary: primary,
			}, 0, nil
		}
		j.mu.Unlock()
		select {
		case <-ctx.Done():
			g.abort(j, runID, "request cancelled")
			return nil, http.StatusGatewayTimeout, ctx.Err()
		case <-j.notify:
		case <-time.After(g.cfg.ReadyTimeout):
			// Every node finished its slice but no assembly target ever
			// held the full factor: frames to the targets were lost in
			// flight. Synthesize a transient failure so the retry branch
			// restarts the epoch and survivors retransmit.
			j.mu.Lock()
			if j.runID == runID && len(j.failures) == 0 &&
				j.allDoneLocked() && len(j.ready) == 0 {
				j.failures = append(j.failures, &wire.Done{
					Err: "all nodes done but no assembly target holds the full factor",
				})
			}
			j.mu.Unlock()
		}
	}
}

// partitionLocked assigns virtual processors to the run's participants:
// processors in decreasing flop load, each to the node finishing it
// soonest at its advertised speed. Degenerate advertised speeds (zero,
// negative, NaN, ±Inf) are an error — the checked partition refuses them
// rather than producing a silently lopsided assignment. Caller holds j.mu.
func (g *Gateway) partitionLocked(j *gwJob) ([]uint16, error) {
	speeds := make([]float64, len(j.members))
	for i, m := range j.members {
		speeds[i] = m.speed
	}
	ord := make([]int, len(j.loads))
	for i := range ord {
		ord[i] = i
	}
	// Decreasing load, mirroring mapping.Greedy's convention.
	for i := 1; i < len(ord); i++ {
		for k := i; k > 0 && j.loads[ord[k]] > j.loads[ord[k-1]]; k-- {
			ord[k], ord[k-1] = ord[k-1], ord[k]
		}
	}
	asg, err := mapping.GreedyWeightedChecked(ord, j.loads, speeds)
	if err != nil {
		return nil, err
	}
	nodeOf := make([]uint16, len(asg))
	for p, nd := range asg {
		nodeOf[p] = uint16(nd)
	}
	return nodeOf, nil
}

// bestFailure ranks failures like the in-process executor: any pivot error
// beats an infrastructure error, and among pivots the lowest (Block, Row)
// wins, so concurrent breakdowns surface deterministically.
func bestFailure(fs []*wire.Done) *wire.Done {
	best := fs[0]
	for _, f := range fs[1:] {
		switch {
		case f.HasPivot && !best.HasPivot:
			best = f
		case f.HasPivot && best.HasPivot:
			if f.PivotBlock < best.PivotBlock ||
				(f.PivotBlock == best.PivotBlock && f.PivotRow < best.PivotRow) {
				best = f
			}
		}
	}
	return best
}

func (g *Gateway) abort(j *gwJob, runID uint64, reason string) {
	j.mu.Lock()
	members := append([]*member(nil), j.members...)
	epoch := j.epoch
	j.mu.Unlock()
	ab := &wire.Abort{JobID: j.id, RunID: runID, Epoch: epoch, Reason: reason}
	for _, m := range members {
		if m.isAlive() {
			_ = m.send(wire.Frame{Type: wire.TAbort, Abort: ab})
		}
	}
}

type gwSolveResponse struct {
	ID        string    `json:"id"`
	X         []float64 `json:"x"`
	Node      string    `json:"node"`
	ElapsedMs float64   `json:"elapsed_ms"`
}

func (g *Gateway) handleSolve(w http.ResponseWriter, r *http.Request) {
	g.metSolveReqs.Add(1)
	if r.Method != http.MethodPost {
		g.writeErr(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	deadline, _ := ctx.Deadline()
	release, ok := g.admit(ctx, w, admission.Request{
		Tenant: gwTenantOf(r), Priority: admission.Interactive, Deadline: deadline,
	})
	if !ok {
		return
	}
	defer release()
	req, err := server.DecodeSolve(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	if err != nil {
		g.writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.BS != nil {
		g.writeErr(w, http.StatusBadRequest, errors.New(`the gateway solves one right-hand side per request: send "b", not "bs"`))
		return
	}
	j := g.jobByID(req.ID)
	if j == nil {
		g.writeErr(w, http.StatusNotFound, fmt.Errorf("no factor %q", req.ID))
		return
	}
	// Route to the primary if it still holds the factor, else any ready
	// replica — the solve-side half of buddy failover. The degraded-mode
	// local factor is the target of last resort.
	j.mu.Lock()
	localF := j.localF
	var targets []*member
	if j.solvable {
		order := append([]int{j.primary}, j.replicas...)
		for _, i := range order {
			if j.ready[i] && j.members[i].isAlive() {
				targets = append(targets, j.members[i])
			}
		}
	}
	j.mu.Unlock()
	if len(targets) == 0 && localF == nil {
		g.writeErr(w, http.StatusConflict, fmt.Errorf("factor %q is not ready", req.ID))
		return
	}

	start := time.Now()
	var lastErr error
	for _, t := range targets {
		x, err := g.solveOn(ctx, t, req.ID, req.B)
		if err == nil {
			writeJSON(w, http.StatusOK, gwSolveResponse{
				ID: req.ID, X: x, Node: t.id,
				ElapsedMs: float64(time.Since(start).Microseconds()) / 1e3,
			})
			return
		}
		lastErr = err
	}
	if localF != nil {
		g.metLocalSolves.Add(1)
		x, err := localF.Solve(req.B)
		if err == nil {
			writeJSON(w, http.StatusOK, gwSolveResponse{
				ID: req.ID, X: x, Node: "local",
				ElapsedMs: float64(time.Since(start).Microseconds()) / 1e3,
			})
			return
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("no assembly node holds the factor")
	}
	g.writeErr(w, http.StatusServiceUnavailable, lastErr)
}

func (g *Gateway) solveOn(ctx context.Context, m *member, jobID string, b []float64) ([]float64, error) {
	seq := g.solveSeq.Add(1)
	ch := make(chan *wire.SolveResp, 1)
	m.mu.Lock()
	m.pending[seq] = ch
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.pending, seq)
		m.mu.Unlock()
	}()
	if err := m.send(wire.Frame{Type: wire.TSolveReq, SolveReq: &wire.SolveReq{Seq: seq, JobID: jobID, B: b}}); err != nil {
		return nil, err
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case resp := <-ch:
		if !resp.OK {
			return nil, errors.New(resp.Err)
		}
		return resp.X, nil
	}
}

type gwNodeHealth struct {
	ID         string  `json:"id"`
	Alive      bool    `json:"alive"`
	DataAddr   string  `json:"data_addr"`
	LastBeatMs float64 `json:"last_heartbeat_ms"`
	Speed      float64 `json:"speed"`
}

type gwHealth struct {
	Status    string         `json:"status"`    // ok | degraded | down
	Admission string         `json:"admission"` // ok | shed-low-priority | reject-new-factors | drain
	Nodes     []gwNodeHealth `json:"nodes"`
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	members := append([]*member(nil), g.members...)
	g.mu.Unlock()
	status, _, _ := g.fleetStatus()
	h := gwHealth{Status: status, Admission: g.adm.State().String()}
	for _, m := range members {
		m.mu.Lock()
		nh := gwNodeHealth{
			ID: m.id, Alive: m.alive, DataAddr: m.dataAddr, Speed: m.speed,
			LastBeatMs: float64(time.Since(m.lastBeat).Microseconds()) / 1e3,
		}
		m.mu.Unlock()
		h.Nodes = append(h.Nodes, nh)
	}
	// "degraded" answers 200: the gateway still serves (local fallback or a
	// reduced fleet), and a load balancer should keep routing to it. Only
	// "down" — below MinNodes with fallback disabled — is a 503.
	code := http.StatusOK
	if status == "down" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

type gwNodeMetrics struct {
	ID          string  `json:"id"`
	Alive       bool    `json:"alive"`
	LastBeatMs  float64 `json:"last_heartbeat_ms"` // age of the newest heartbeat
	BlocksOwned uint64  `json:"blocks_owned"`
	BlocksDone  uint64  `json:"blocks_done"`
	Flops       uint64  `json:"flops"`
	Steals      uint64  `json:"steals"`
	BytesSent   uint64  `json:"bytes_sent"`
	BytesRecv   uint64  `json:"bytes_received"`
	Failovers   uint64  `json:"failovers"`
	// DeadlineAborts counts epochs the node abandoned because the
	// requester's deadline expired before the work finished.
	DeadlineAborts uint64 `json:"deadline_aborts"`
}

type gwMetricsDoc struct {
	Status         string          `json:"status"` // ok | degraded | down
	FactorRequests uint64          `json:"factor_requests"`
	SolveRequests  uint64          `json:"solve_requests"`
	Failovers      uint64          `json:"failovers"`
	Epochs         uint64          `json:"epochs_started"`
	EpochRetries   uint64          `json:"epoch_retries"` // backoff restarts after infra failures
	LocalFactors   uint64          `json:"local_factors"` // degraded-mode factorizations
	LocalSolves    uint64          `json:"local_solves"`  // solves served by the local fallback factor
	WarmPlans      uint64          `json:"warm_plans"`    // plans restored by the last WarmStart
	Jobs           int             `json:"jobs"`
	Store          *store.Stats    `json:"store,omitempty"` // absent without -store-dir
	Admission      admission.Stats `json:"admission"`
	Nodes          []gwNodeMetrics `json:"nodes"`
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	members := append([]*member(nil), g.members...)
	jobs := len(g.jobs)
	g.mu.Unlock()
	status, _, _ := g.fleetStatus()
	doc := gwMetricsDoc{
		Status:         status,
		FactorRequests: g.metFactorReqs.Load(),
		SolveRequests:  g.metSolveReqs.Load(),
		Failovers:      g.metFailovers.Load(),
		Epochs:         g.metEpochs.Load(),
		EpochRetries:   g.metEpochRetries.Load(),
		LocalFactors:   g.metLocalFactors.Load(),
		LocalSolves:    g.metLocalSolves.Load(),
		WarmPlans:      g.metWarmPlans.Load(),
		Jobs:           jobs,
		Admission:      g.adm.Snapshot(),
	}
	if g.st != nil {
		st := g.st.Stats()
		doc.Store = &st
	}
	for _, m := range members {
		m.mu.Lock()
		doc.Nodes = append(doc.Nodes, gwNodeMetrics{
			ID: m.id, Alive: m.alive,
			LastBeatMs:  float64(time.Since(m.lastBeat).Microseconds()) / 1e3,
			BlocksOwned: m.stats.BlocksOwned, BlocksDone: m.stats.BlocksDone,
			Flops: m.stats.Flops, Steals: m.stats.Steals,
			BytesSent: m.stats.BytesSent, BytesRecv: m.stats.BytesRecv,
			Failovers: m.stats.Failovers, DeadlineAborts: m.stats.DeadlineAborts,
		})
		m.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, doc)
}

// NodeOfSnapshot returns the current processor→node partition of a job's
// run, for tests and benchmarks asserting on the speed-aware split.
func (g *Gateway) NodeOfSnapshot(jobID string) ([]uint16, []string) {
	j := g.jobByID(jobID)
	if j == nil {
		return nil, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ids := make([]string, len(j.members))
	for i, m := range j.members {
		ids[i] = m.id
	}
	return append([]uint16(nil), j.nodeOf...), ids
}

// Loads returns a job's per-processor flop loads (after a factor request
// built the schedule).
func (g *Gateway) Loads(jobID string) []int64 {
	j := g.jobByID(jobID)
	if j == nil {
		return nil
	}
	return append([]int64(nil), j.loads...)
}
