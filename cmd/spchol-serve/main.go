// Command spchol-serve runs the long-running sparse Cholesky solve service.
// Clients POST matrices to /v1/factor (MatrixMarket text or JSON-CSC,
// selected by Content-Type) and right-hand sides to /v1/solve; repeated
// factor requests for the same sparsity pattern skip ordering and symbolic
// analysis via the pattern-keyed plan cache and refactor numerically in
// place, and concurrent single-RHS solves are coalesced into shared
// multi-RHS sweeps.
//
// Usage:
//
//	spchol-serve -addr :8080 -procs 8 -workers 4
//	spchol-serve -cache-entries 32 -cache-bytes 536870912 -batch-window 2ms
//
// SIGINT/SIGTERM drain the server: health checks start failing (so load
// balancers stop routing), in-flight requests finish, then the process
// exits.
//
// With -gateway the process instead fronts a multi-node cluster: it opens
// a second listener (-control) that spchol-node workers dial, shards
// factorizations across them, and serves the same /v1/* API backed by the
// cluster (see internal/cluster).
//
//	spchol-serve -gateway -addr :8080 -control :9000 -replicas 1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blockfanout/internal/admission"
	"blockfanout/internal/cluster"
	"blockfanout/internal/fanout"
	"blockfanout/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spchol-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		procs        = flag.Int("procs", 0, "parallel width of each factorization (0 = GOMAXPROCS, capped at 16)")
		workers      = flag.Int("workers", 0, "concurrent heavy operations (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "operations that may wait for a worker before 429")
		cacheEntries = flag.Int("cache-entries", 0, "plan cache entry budget (0 = default 64)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "plan cache byte budget (0 = default 1 GiB)")
		batchWindow  = flag.Duration("batch-window", 2*time.Millisecond, "how long a solve arriving while a sweep of its factor runs waits for company; a solve finding its factor idle runs at once (negative disables batching)")
		batchLimit   = flag.Int("batch-limit", 64, "flush a batch early at this many right-hand sides")
		timeout      = flag.Duration("timeout", 60*time.Second, "per-request deadline for heavy work")
		block        = flag.Int("block", 0, "panel width B of new plans (0 = default 48)")
		execMode     = flag.String("exec", "steal", "parallel execution engine: steal | spmd")
		drainWait    = flag.Duration("drain-wait", 30*time.Second, "how long shutdown waits for in-flight requests")
		debugAddr    = flag.String("debug-addr", "", "optional second listener with net/http/pprof and /metrics (keep it off the public network)")
		storeDir     = flag.String("store-dir", "", "durable snapshot store directory; factors persist across restarts and are warm-started on boot (empty = no durability)")
		snapEvery    = flag.Duration("snapshot-interval", 0, "minimum spacing between write-behind snapshots of the same factor (0 = default 1s, negative = snapshot every factorization)")

		tenantsPath    = flag.String("tenants", "", "JSON file of per-tenant admission limits; the \"default\" key meters tenants not listed (empty = unmetered)")
		maxFactorBytes = flag.Int64("max-factor-bytes", 0, "refuse factor requests whose factor would exceed this many bytes, before symbolic work (0 = unlimited)")
		memSoftBytes   = flag.Uint64("mem-soft-bytes", 0, "heap watermark that sheds low-priority work (brownout; 0 = disabled)")
		memHardBytes   = flag.Uint64("mem-hard-bytes", 0, "heap watermark that rejects new factorizations (0 = disabled)")

		gateway      = flag.Bool("gateway", false, "run as a cluster gateway instead of a single-process server")
		control      = flag.String("control", ":9000", "gateway: listen address for spchol-node control connections")
		replicas     = flag.Int("replicas", 1, "gateway: factor replicas besides the primary assembly node")
		minNodes     = flag.Int("min-nodes", 1, "gateway: refuse factor requests below this many live nodes")
		beatEvery    = flag.Duration("heartbeat-interval", 500*time.Millisecond, "gateway: heartbeat cadence the fleet is expected to keep")
		beatMisses   = flag.Int("heartbeat-misses", 4, "gateway: consecutive missed heartbeat intervals before a node is declared dead")
		beatLimit    = flag.Duration("heartbeat-timeout", 0, "gateway: declare a silent node dead after this long (0 = heartbeat-interval × heartbeat-misses)")
		fallbackFlag = flag.Bool("local-fallback", true, "gateway: factor locally (degraded mode) instead of erroring when fewer than min-nodes are alive")
	)
	flag.Parse()

	mode, err := fanout.ParseMode(*execMode)
	if err != nil {
		return err
	}

	tenantDefault, tenants, err := loadTenants(*tenantsPath)
	if err != nil {
		return err
	}

	if *gateway {
		return runGateway(gatewayFlags{
			addr: *addr, control: *control, procs: *procs,
			block: *block, exec: mode, replicas: *replicas,
			minNodes: *minNodes, heartbeatInterval: *beatEvery,
			heartbeatMisses: *beatMisses, heartbeatTimeout: *beatLimit,
			localFallback: *fallbackFlag, storeDir: *storeDir,
			cacheEntries: *cacheEntries, cacheBytes: *cacheBytes,
			timeout: *timeout, drainWait: *drainWait,
			queueDepth: *queue, tenantDefault: tenantDefault, tenants: tenants,
			memSoftBytes: *memSoftBytes, memHardBytes: *memHardBytes,
		})
	}

	s := server.New(server.Config{
		Procs:            *procs,
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheEntries:     *cacheEntries,
		CacheBytes:       *cacheBytes,
		BatchWindow:      *batchWindow,
		BatchLimit:       *batchLimit,
		RequestTimeout:   *timeout,
		BlockSize:        *block,
		Exec:             mode,
		StoreDir:         *storeDir,
		SnapshotInterval: *snapEvery,
		TenantDefault:    tenantDefault,
		Tenants:          tenants,
		MaxFactorBytes:   *maxFactorBytes,
		MemSoftBytes:     *memSoftBytes,
		MemHardBytes:     *memHardBytes,
	})
	if *storeDir != "" {
		if n, err := s.WarmStart(); err != nil {
			log.Printf("warm start: %v", err)
		} else {
			log.Printf("warm start: restored %d factor(s) from %s", n, *storeDir)
		}
	}
	hs := newHTTPServer(*addr, s.Handler())

	// The debug listener carries pprof, which must stay opt-in and off the
	// serving address; its lifetime is tied to the process, not the drain.
	var ds *http.Server
	if *debugAddr != "" {
		ds = newHTTPServer(*debugAddr, s.DebugHandler())
		go func() {
			log.Printf("debug listener (pprof, /metrics) on %s", *debugAddr)
			if err := ds.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("spchol-serve listening on %s", *addr)
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("draining (up to %s)...", *drainWait)
	s.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if ds != nil {
		_ = ds.Shutdown(shutdownCtx)
	}
	s.Close() // flush pending snapshot writes
	log.Printf("drained cleanly")
	return <-errc
}

// newHTTPServer wraps a handler with the protective timeouts every
// listener needs: a client that stalls mid-headers, trickles a body
// forever, or parks an idle connection cannot pin a goroutine (and its
// buffers) indefinitely. The read timeout is generous because legitimate
// MatrixMarket uploads of paper-scale problems stream hundreds of MB.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// loadTenants reads the -tenants JSON file: an object mapping tenant name
// to admission limits, with the special key "default" metering tenants not
// listed. An empty path leaves everyone unmetered.
//
//	{
//	  "default":  {"rate": 5, "burst": 10, "max_in_flight": 2},
//	  "team-ml":  {"rate": 100, "burst": 200, "max_in_flight": 16,
//	               "max_cache_bytes": 268435456}
//	}
func loadTenants(path string) (admission.TenantLimits, map[string]admission.TenantLimits, error) {
	var def admission.TenantLimits
	if path == "" {
		return def, nil, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return def, nil, fmt.Errorf("tenants: %w", err)
	}
	all := make(map[string]admission.TenantLimits)
	if err := json.Unmarshal(b, &all); err != nil {
		return def, nil, fmt.Errorf("tenants: parse %s: %w", path, err)
	}
	if d, ok := all["default"]; ok {
		def = d
		delete(all, "default")
	}
	return def, all, nil
}

// gatewayFlags carries the -gateway subset of the command line.
type gatewayFlags struct {
	addr, control     string
	procs, block      int
	exec              fanout.Mode
	replicas          int
	minNodes          int
	heartbeatInterval time.Duration
	heartbeatMisses   int
	heartbeatTimeout  time.Duration
	localFallback     bool
	storeDir          string
	cacheEntries      int
	cacheBytes        int64
	timeout           time.Duration
	drainWait         time.Duration
	queueDepth        int
	tenantDefault     admission.TenantLimits
	tenants           map[string]admission.TenantLimits
	memSoftBytes      uint64
	memHardBytes      uint64
}

// runGateway serves the /v1/* API backed by a node cluster instead of the
// in-process worker pool.
func runGateway(gf gatewayFlags) error {
	gw := cluster.NewGateway(cluster.GatewayConfig{
		Procs:                gf.procs,
		BlockSize:            gf.block,
		Exec:                 gf.exec,
		Replicas:             gf.replicas,
		MinNodes:             gf.minNodes,
		HeartbeatInterval:    gf.heartbeatInterval,
		HeartbeatMisses:      gf.heartbeatMisses,
		HeartbeatTimeout:     gf.heartbeatTimeout,
		DisableLocalFallback: !gf.localFallback,
		StoreDir:             gf.storeDir,
		RequestTimeout:       gf.timeout,
		CacheEntries:         gf.cacheEntries,
		CacheBytes:           gf.cacheBytes,
		QueueDepth:           gf.queueDepth,
		TenantDefault:        gf.tenantDefault,
		Tenants:              gf.tenants,
		MemSoftBytes:         gf.memSoftBytes,
		MemHardBytes:         gf.memHardBytes,
		Logf:                 log.Printf,
	})
	if gf.storeDir != "" {
		if n, err := gw.WarmStart(); err != nil {
			log.Printf("gateway warm start: %v", err)
		} else {
			log.Printf("gateway warm start: restored %d plan(s) from %s", n, gf.storeDir)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", gf.control)
	if err != nil {
		return fmt.Errorf("control listener: %w", err)
	}
	go func() {
		log.Printf("gateway control listener on %s", ln.Addr())
		if err := gw.Serve(ctx, ln); err != nil {
			log.Printf("gateway control: %v", err)
		}
	}()

	hs := newHTTPServer(gf.addr, gw.Handler())
	errc := make(chan error, 1)
	go func() {
		log.Printf("gateway API listening on %s", gf.addr)
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), gf.drainWait)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return <-errc
}
