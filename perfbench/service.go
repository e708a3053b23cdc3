package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"blockfanout/internal/server"
)

// service is the solve service under test, as its users reach it: a
// server.New with the spchol-serve defaults, its Handler behind the
// benchmark's timing middleware on a loopback listener, and an HTTP client
// with at most one connection per closed-loop client.
type service struct {
	mw   *timing
	hs   *http.Server
	done chan struct{}
	url  string
	cl   *http.Client
}

// startService constructs the service and returns once it answers
// /healthz.
func startService(clients int) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mw := &timing{next: server.New(server.Config{}).Handler()}
	sv := &service{
		mw:   mw,
		hs:   &http.Server{Handler: mw},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
		cl: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		}},
	}
	go func() {
		defer close(sv.done)
		sv.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	if err := sv.get("/healthz", &struct{}{}); err != nil {
		sv.close()
		return nil, err
	}
	return sv, nil
}

// close stops the listener and waits for the serving goroutine to exit.
func (sv *service) close() {
	sv.hs.Close()
	<-sv.done
	sv.cl.CloseIdleConnections()
}

// do sends one request and decodes a 200 response into out. Any other
// status is an error carrying the server's message.
func (sv *service) do(req *http.Request, out any) error {
	resp, err := sv.cl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: HTTP %d: %s", req.URL.Path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	err = json.NewDecoder(resp.Body).Decode(out)
	io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return err
}

func (sv *service) post(path string, body []byte, out any) error {
	req, err := http.NewRequest(http.MethodPost, sv.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return sv.do(req, out)
}

func (sv *service) get(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, sv.url+path, nil)
	if err != nil {
		return err
	}
	return sv.do(req, out)
}

// factorReply is the /v1/factor response.
type factorReply struct {
	ID         string `json:"id"`
	NNZL       int64  `json:"nnz_l"`
	Flops      int64  `json:"flops"`
	CacheHit   bool   `json:"cache_hit"`
	Refactored bool   `json:"refactored"`
}

func (sv *service) factor(body []byte) (factorReply, error) {
	var fr factorReply
	err := sv.post("/v1/factor", body, &fr)
	return fr, err
}

// solveBody is the /v1/solve request for one right-hand side.
func solveBody(id string, b []float64) []byte {
	body, err := json.Marshal(struct {
		ID string    `json:"id"`
		B  []float64 `json:"b"`
	}{id, b})
	if err != nil {
		panic(err) // finite floats always encode
	}
	return body
}

func (sv *service) solve(body []byte) ([]float64, error) {
	var sr struct {
		X []float64 `json:"x"`
	}
	err := sv.post("/v1/solve", body, &sr)
	return sr.X, err
}

// metricsDoc is the part of the service's /metrics document the benchmark
// reads.
type metricsDoc struct {
	Batches     int64 `json:"batches"`
	BatchedRHS  int64 `json:"batched_rhs"`
	LiveFactors int   `json:"live_factors"`
	Cache       struct {
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"plan_cache"`
	Latency struct {
		Refactor latencyDoc `json:"refactor"`
		Solve    latencyDoc `json:"solve"`
	} `json:"latency"`
}

type latencyDoc struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
}

func (sv *service) metrics() (metricsDoc, error) {
	var doc metricsDoc
	err := sv.get("/metrics", &doc)
	return doc, err
}

// scrape reads /metrics and records the service-side layer numbers.
func (sv *service) scrape(res *result) error {
	doc, err := sv.metrics()
	if err != nil {
		return err
	}
	if doc.Latency.Solve.Count > 0 {
		res.layer["server.solve_core_ms_p50"] = metric{doc.Latency.Solve.P50Ms, "ms"}
	}
	if doc.Latency.Refactor.Count > 0 {
		res.layer["server.refactor_core_ms_p50"] = metric{doc.Latency.Refactor.P50Ms, "ms"}
	}
	if doc.Batches > 0 {
		res.layer["server.batch_rhs_mean"] = metric{float64(doc.BatchedRHS) / float64(doc.Batches), "rhs"}
	}
	res.layer["plancache.misses"] = metric{float64(doc.Cache.Misses), "count"}
	res.layer["plancache.evictions"] = metric{float64(doc.Cache.Evictions), "count"}
	res.layer["server.live_factors"] = metric{float64(doc.LiveFactors), "count"}
	return nil
}

// decodeMs times server.ReadMatrix, the service's request decoder, on body.
func decodeMs(body []byte) (float64, error) {
	t := time.Now()
	_, err := server.ReadMatrix(bytes.NewReader(body), "application/json")
	return msSince(t), err
}

// timing is the benchmark's middleware around the service's handler:
// while enabled it records each request's path and handler interval.
type timing struct {
	next  http.Handler
	on    atomic.Bool
	mu    sync.Mutex
	spans []handlerSpan
}

type handlerSpan struct {
	path       string
	start, end time.Time
}

func (t *timing) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, r)
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, handlerSpan{r.URL.Path, start, end})
	t.mu.Unlock()
}

// handlerLayers records the handler times the middleware saw in the
// traced window: median factor and solve handler time, and the solves
// whose handler interval overlapped a factor request's.
func (t *timing) handlerLayers(res *result) {
	t.mu.Lock()
	spans := append([]handlerSpan(nil), t.spans...)
	t.mu.Unlock()
	var factors []handlerSpan
	var fac, sol, overlapped series
	for _, s := range spans {
		if s.path == "/v1/factor" {
			factors = append(factors, s)
			fac.add(s.end.Sub(s.start))
		}
	}
	for _, s := range spans {
		if s.path != "/v1/solve" {
			continue
		}
		d := s.end.Sub(s.start)
		sol.add(d)
		for _, f := range factors {
			if s.start.Before(f.end) && f.start.Before(s.end) {
				overlapped.add(d)
				break
			}
		}
	}
	res.layer["server.factor_handler_ms"] = metric{fac.quantile(0.5), "ms"}
	res.layer["server.solve_handler_ms"] = metric{sol.quantile(0.5), "ms"}
	if len(sol) > 0 {
		res.layer["server.solve_overlap_frac"] = metric{float64(len(overlapped)) / float64(len(sol)), "fraction"}
	}
	if len(overlapped) > 0 {
		res.layer["server.solve_ms_p50_overlapped"] = metric{overlapped.quantile(0.5), "ms"}
	}
	res.samples["handler.factor"] = len(fac)
	res.samples["handler.solve"] = len(sol)
	res.samples["handler.solve_overlapped"] = len(overlapped)
}
