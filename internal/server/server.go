// Package server implements idled, the decision-serving daemon: a
// low-latency HTTP API over the constrained ski-rental policy of the
// paper. The serving shape follows the algorithm's structure — a
// decision is a pure function of two per-area statistics (mu_B-, q_B+)
// and the break-even interval B, so the vertex selection is precomputed
// once per statistics update and swapped atomically into a read-mostly
// cache; the per-request work is a pointer load, a threshold draw from
// a derived deterministic RNG stream, and JSON encoding.
//
// Endpoints (see docs/SERVER.md for schemas and examples):
//
//	POST /v1/decide              one decision
//	POST /v1/decide/batch        order-preserving parallel fan-out
//	POST /v1/observe             stream one completed stop observation
//	POST /v1/observe/batch       stream observations in input order
//	PUT  /v1/areas/{id}/stats    swap an area's statistics
//	GET  /v1/snapshot            checksummed state-plane snapshot
//	POST /v1/snapshot            live restore of a snapshot
//	GET  /v1/areas               list cached strategies (?policy= view)
//	GET  /v1/policies            list registered policy engines
//	GET  /v1/cr                  competitive-ratio ledger table
//	GET  /v1/history             metrics time series (ring-buffer sampler)
//	GET  /v1/buildinfo           version, Go version, start time, uptime
//	GET  /healthz                liveness (bypasses the limiter)
//	GET  /metrics                obs registry snapshot (Prometheus/JSON)
//
// Robustness: read/write timeouts on the listener, a per-request
// context deadline, a bounded in-flight limiter returning 429 on
// overload, graceful drain on shutdown, and structured JSON errors.
//
// Forensics: every request gets an X-Request-Id (assigned or
// propagated); with a TraceLog configured each request emits a span
// JSONL record carrying the id, route, and decision attributes, and
// with an AuditLog configured every decision appends an AuditRecord
// that VerifyAudit can replay bit-for-bit (see docs/OBSERVABILITY.md).
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"idlereduce/internal/ledger"
	"idlereduce/internal/obs"
	"idlereduce/internal/policy"
	"idlereduce/internal/predict"
)

// Config parameterizes a Server. The zero value of every field has a
// sane default applied by New.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:8080").
	Addr string
	// Workers bounds the batch fan-out pool (0 = GOMAXPROCS).
	Workers int
	// MaxInflight bounds concurrently served /v1/* requests; excess
	// requests get 429 (default 1024).
	MaxInflight int
	// MaxBatch bounds items per batch request; larger batches get 413
	// (default 4096).
	MaxBatch int
	// RootSeed seeds decision randomness when a request carries no seed
	// (default 20140601, the repo-wide experiment seed).
	RootSeed uint64
	// RequestTimeout is the per-request context deadline (default 10s).
	RequestTimeout time.Duration
	// ReadTimeout / WriteTimeout are the http.Server socket timeouts
	// (defaults 10s / 15s).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 10s).
	DrainTimeout time.Duration
	// Areas is the boot-time area configuration (required unless
	// Restore is set).
	Areas []AreaState
	// Shards is the strategy-cache shard count, rounded up to a power
	// of two (0 = DefaultShards). Purely a contention knob: the wire
	// behavior is byte-identical for every value.
	Shards int
	// Retune parameterizes the observation streams behind
	// POST /v1/observe (forgetting, warmup, CUSUM sensitivity). The
	// zero value takes every default.
	Retune RetuneConfig
	// Ledger parameterizes the competitive-ratio ledger joining ledger-
	// opted decides to their observes (pending capacity, join TTL,
	// breach-detector windows). The zero value takes every default; the
	// ledger itself is always on — a decide that does not opt in costs
	// one branch.
	Ledger ledger.Config
	// Restore boots the daemon from a previously captured state plane
	// instead of Areas: statistics, version counters, and observation
	// streams all resume where the donor left off. When both are set,
	// Restore wins.
	Restore *StatePlane
	// DefaultPolicy selects the engine served when a request carries no
	// policy field: a registered engine spec ("constrained",
	// "multislope3@v1", ...). Empty means the registry default
	// (constrained). The engine is prepared for every area at boot and
	// on every stats update, so a daemon whose default engine cannot
	// serve its areas never starts.
	DefaultPolicy string
	// Recorder collects serving metrics; nil allocates a fresh
	// recorder with its own registry.
	Recorder *obs.Recorder
	// TraceLog receives request span records as JSONL (bounded,
	// non-blocking, lossy-counted). Nil disables request tracing.
	TraceLog io.Writer
	// AuditLog receives one AuditRecord per decision as JSONL (same
	// bounded writer discipline). Nil disables the audit log. Size
	// rotation belongs to the writer (see obs.RotatingFile).
	AuditLog io.Writer
	// HistoryInterval is the metrics sampling period backing
	// GET /v1/history (default 1s); HistoryWindow is the ring size in
	// samples (default 120, i.e. two minutes at the default interval).
	HistoryInterval time.Duration
	HistoryWindow   int
	// PprofAddr mounts net/http/pprof on a dedicated listener at this
	// address (e.g. "127.0.0.1:6060"). Empty disables the profiling
	// plane entirely: no listener is bound and no profiling route
	// exists anywhere, including on the serving mux.
	PprofAddr string

	// testDelay artificially delays decide handlers; used by drain and
	// overload tests only.
	testDelay time.Duration
	// testHook, when set, runs inside every decide; tests use it to
	// hold a known number of requests in flight simultaneously.
	testHook func()
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.RootSeed == 0 {
		c.RootSeed = 20140601
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 10 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 15 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Recorder == nil {
		c.Recorder = obs.NewRecorder("idled", nil, nil)
	}
	if c.HistoryInterval <= 0 {
		c.HistoryInterval = time.Second
	}
	if c.HistoryWindow <= 0 {
		c.HistoryWindow = 120
	}
	return c
}

// Server is one idled instance: the strategy cache, the HTTP handler
// tree and the serving lifecycle.
type Server struct {
	cfg      Config
	cache    *Cache
	retune   RetuneConfig // cfg.Retune with defaults applied
	engine   policy.Engine
	ledger   *ledger.Ledger
	rec      *obs.Recorder
	inflight chan struct{}
	start    time.Time
	handler  http.Handler

	// tracer/auditW are the request-forensics sinks (nil when the
	// corresponding Config writer is nil); sampler backs /v1/history.
	tracer  *obs.Tracer
	auditW  *obs.JSONLWriter
	sampler *obs.Sampler

	// bootID prefixes generated request and decision ids; reqSeq and
	// decSeq number them.
	bootID string
	reqSeq atomic.Uint64
	decSeq atomic.Uint64

	mu      sync.Mutex
	ln      net.Listener
	pprofLn net.Listener
}

// New builds a server. It validates and precomputes every configured
// area strategy — for the registry default engine and the daemon's
// DefaultPolicy engine — and validates the retune config, so a
// misconfigured server never starts. Observation trackers and per-area
// metric names are built on each area's first use.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	eng, err := policy.Lookup(cfg.DefaultPolicy)
	if err != nil {
		return nil, fmt.Errorf("server: default policy: %w", err)
	}
	retune := cfg.Retune.withDefaults()
	if err := retune.validate(); err != nil {
		return nil, err
	}
	areas := cfg.Areas
	if cfg.Restore != nil {
		// A restore boot takes the donor's area set wholesale; the
		// version counters carry over below.
		if err := cfg.Restore.Validate(); err != nil {
			return nil, err
		}
		areas = make([]AreaState, len(cfg.Restore.Areas))
		for i, a := range cfg.Restore.Areas {
			areas[i] = a.AreaState
		}
	}
	cache, err := NewShardedCache(areas, []policy.Engine{eng}, cfg.Shards)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		cache:    cache,
		retune:   retune,
		engine:   eng,
		ledger:   ledger.New(cfg.Ledger),
		rec:      cfg.Recorder,
		inflight: make(chan struct{}, cfg.MaxInflight),
		start:    time.Now(),
	}
	if cfg.Restore != nil {
		// Re-apply the full plane so versions and trackers resume; the
		// cache boot above only established the area set.
		if err := s.restoreState(*cfg.Restore); err != nil {
			return nil, err
		}
	}
	// The cache now holds the area set; the boot inputs would only pin
	// their memory for the daemon's lifetime.
	s.cfg.Areas, s.cfg.Restore = nil, nil
	s.bootID = fmt.Sprintf("%08x", uint32(s.start.UnixNano()))
	if cfg.TraceLog != nil {
		s.tracer = obs.NewTracer(obs.NewJSONLWriter(cfg.TraceLog, 4096))
	}
	if cfg.AuditLog != nil {
		s.auditW = obs.NewJSONLWriter(cfg.AuditLog, 8192)
	}
	s.sampler = obs.NewSampler(cfg.HistoryInterval, cfg.HistoryWindow, s.probes()...)
	s.handler = s.routes()
	return s, nil
}

// probes selects the registry series /v1/history retains: request and
// decision throughput, load shedding, in-flight depth, cache
// hit/miss, and the decide/batch latency quantiles.
func (s *Server) probes() []obs.Probe {
	reg := s.rec.Registry()
	return []obs.Probe{
		obs.CounterSumProbe(reg, "requests", "http_requests_total"),
		obs.CounterSumProbe(reg, "decisions", "decide_total"),
		obs.CounterSumProbe(reg, "overloaded", "http_overload_total"),
		obs.CounterSumProbe(reg, "cache_hits", "decide_cache_hits_total"),
		obs.CounterSumProbe(reg, "cache_misses", "decide_cache_misses_total"),
		obs.CounterSumProbe(reg, "observations", "observe_total"),
		obs.CounterSumProbe(reg, "retune_alarms", "retune_alarms_total"),
		obs.CounterSumProbe(reg, "retunes", "retune_total"),
		obs.CounterSumProbe(reg, "predicted_decisions", "decide_prediction_total"),
		obs.CounterSumProbe(reg, "predict_consistency", predict.MetricConsistency),
		obs.CounterSumProbe(reg, "predict_regret", predict.MetricRegret),
		obs.HistogramMeanProbe(reg, "predict_err_mean_s", predict.MetricErrAbs),
		obs.HistogramMeanProbe(reg, "predict_bias_s", predict.MetricErrSigned),
		obs.CounterSumProbe(reg, "settles", "ledger_settled_total"),
		obs.CounterSumProbe(reg, "cr_breaches", "cr_breach_total"),
		{Name: "ledger_pending", Kind: obs.ProbeGauge, F: func() float64 {
			return float64(s.ledger.PendingCount())
		}},
		{Name: "cr_worst", Kind: obs.ProbeGauge, F: func() float64 {
			w, ok := s.ledger.Worst()
			if !ok {
				return 0
			}
			return w.CR
		}},
		obs.GaugeProbe(reg, "inflight", "http_inflight_requests"),
		obs.HistogramQuantileProbe(reg, "decide_p50_ms", obs.L("http_request_ms", "route", "decide"), 0.50),
		obs.HistogramQuantileProbe(reg, "decide_p99_ms", obs.L("http_request_ms", "route", "decide"), 0.99),
		obs.HistogramQuantileProbe(reg, "batch_p50_ms", obs.L("http_request_ms", "route", "batch"), 0.50),
		obs.HistogramQuantileProbe(reg, "batch_p99_ms", obs.L("http_request_ms", "route", "batch"), 0.99),
	}
}

// newRequestID mints a process-unique request id: a boot prefix plus
// a sequence number — cheap, collision-free within a run, and easy to
// grep across trace spans and audit records.
func (s *Server) newRequestID() string {
	return fmt.Sprintf("%s-%07d", s.bootID, s.reqSeq.Add(1))
}

// newDecisionID mints a process-unique decision id for the
// competitive-ratio ledger (the "d" keeps it visually distinct from
// request ids in interleaved logs).
func (s *Server) newDecisionID() string {
	return fmt.Sprintf("%s-d%06d", s.bootID, s.decSeq.Add(1))
}

// History returns the sampler's retained metrics window (the
// /v1/history payload; exported for embedding and tests).
func (s *Server) History() obs.History { return s.sampler.History() }

// closeLogs flushes and stops the trace and audit sinks; the graceful
// drain calls it so no record accepted before shutdown is lost.
func (s *Server) closeLogs() error {
	var first error
	if err := s.tracer.Close(); err != nil {
		first = err
	}
	if err := s.auditW.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Recorder returns the server's metrics recorder.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// Handler returns the root HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// routes wires the endpoint tree. Decision and admin routes go through
// the full middleware stack; healthz and metrics bypass the in-flight
// limiter so an overloaded server still answers probes and scrapes.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/decide", s.instrument("decide", true, s.handleDecide))
	mux.Handle("POST /v1/decide/batch", s.instrument("batch", true, s.handleBatch))
	mux.Handle("POST /v1/observe", s.instrument("observe", true, s.handleObserve))
	mux.Handle("POST /v1/observe/batch", s.instrument("observe_batch", true, s.handleObserveBatch))
	mux.Handle("PUT /v1/areas/{id}/stats", s.instrument("stats_update", true, s.handleStatsUpdate))
	mux.Handle("GET /v1/snapshot", s.instrument("snapshot", true, s.handleSnapshotGet))
	mux.Handle("POST /v1/snapshot", s.instrument("snapshot_restore", true, s.handleSnapshotRestore))
	mux.Handle("GET /v1/areas", s.instrument("areas", true, s.handleAreas))
	mux.Handle("GET /v1/policies", s.instrument("policies", true, s.handlePolicies))
	mux.Handle("GET /v1/cr", s.instrument("cr", false, s.handleCR))
	mux.Handle("GET /v1/history", s.instrument("history", false, s.handleHistory))
	mux.Handle("GET /v1/buildinfo", s.instrument("buildinfo", false, s.handleBuildInfo))
	mux.Handle("GET /healthz", s.instrument("healthz", false, s.handleHealthz))
	mux.Handle("GET /metrics", s.instrument("metrics", false, s.handleMetrics))
	mux.Handle("/", s.instrument("fallthrough", false, s.handleNotFound))
	return mux
}

// Listen binds the configured addresses — the serving listener and,
// when Config.PprofAddr is set, the separate profiling listener — and
// returns the bound serving address (useful with ":0"). Idempotent: a
// second call returns the existing address.
func (s *Server) Listen() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		return s.ln.Addr().String(), nil
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return "", fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	if err := s.listenPprof(); err != nil {
		ln.Close()
		return "", err
	}
	s.ln = ln
	return ln.Addr().String(), nil
}

// Serve accepts connections until ctx is cancelled, then drains
// gracefully: in-flight requests get up to DrainTimeout to finish and
// the trace/audit sinks are flushed before returning, so a SIGTERM
// loses no accepted record. It binds lazily if Listen was not called.
// A clean drain returns nil.
func (s *Server) Serve(ctx context.Context) error {
	if _, err := s.Listen(); err != nil {
		return err
	}
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()

	samplerCtx, stopSampler := context.WithCancel(context.Background())
	defer stopSampler()
	go s.sampler.Run(samplerCtx)

	// The profiling plane lives on its own listener and lifecycle:
	// it is stopped with the sampler, after the serving drain, so a
	// profile capture can observe the drain itself.
	s.mu.Lock()
	pprofLn := s.pprofLn
	s.mu.Unlock()
	pprofDone := make(chan struct{})
	if pprofLn != nil {
		go func() {
			defer close(pprofDone)
			_ = s.servePprof(samplerCtx, pprofLn)
		}()
	} else {
		close(pprofDone)
	}
	defer func() { stopSampler(); <-pprofDone }()

	hs := &http.Server{
		Handler:      s.handler,
		ReadTimeout:  s.cfg.ReadTimeout,
		WriteTimeout: s.cfg.WriteTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		s.closeLogs()
		return fmt.Errorf("server: serve: %w", err)
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	s.rec.Event("server_drain")
	err := hs.Shutdown(drainCtx)
	// Flush after Shutdown in every case: in-flight handlers have
	// finished (or the drain timed out); what they enqueued must reach
	// the logs either way.
	if cerr := s.closeLogs(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("server: drain: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("server: serve: %w", err)
	}
	return nil
}
