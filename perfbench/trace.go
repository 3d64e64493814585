package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"idlereduce/internal/adaptive"
	"idlereduce/internal/ledger"
	"idlereduce/internal/obs"
	"idlereduce/internal/parallel"
	"idlereduce/internal/policy"
	"idlereduce/internal/predict"
	"idlereduce/internal/server"
	"idlereduce/internal/skirental"
)

// perLayer are the metrics of a traced run, one or more per module.
var perLayer = []metricDef{
	{"server.handler_us", "us"},
	{"server.handler_allocs", "count"},
	{"server.transport_us", "us"},
	{"server.codec_decode_us", "us"},
	{"server.codec_encode_us", "us"},
	{"obs.metric_update_ns", "ns"},
	{"server.cache_read_ns", "ns"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_write_us", "us"},
	{"server.cache_lazy_fill_us", "us"},
	{"server.cache_writes", "count"},
	{"server.cache_build_s", "s"},
	{"policy.prepare_us.constrained", "us"},
	{"policy.prepare_us.multislope3", "us"},
	{"policy.prepare_us.softml", "us"},
	{"policy.prepare_us.distadvice", "us"},
	{"policy.draw_ns", "ns"},
	{"parallel.map_us", "us"},
	{"adaptive.observe_ns", "ns"},
	{"adaptive.retunes", "count"},
	{"ledger.issue_ns", "ns"},
	{"ledger.settle_ns", "ns"},
	{"ledger.pending", "count"},
	{"ledger.orphans", "count"},
	{"ledger.paper_cost_mismatch", "count"},
	{"obs.audit_write_ns", "ns"},
	{"obs.audit_dropped", "count"},
	{"obs.audit_unverified", "count"},
	{"obs.metrics_series", "count"},
	{"obs.metrics_bytes", "bytes"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_us", "us"},
	{"trace.unattributed_us", "us"},
}

// span is one traced interval. Spans of one HTTP request share req;
// parent is the enclosing span's id (0 at top level).
type span struct {
	id, parent int64
	name, req  string
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
	kinds map[string]string // request id -> request kind
}

func newTracer() *tracer { return &tracer{t0: time.Now(), kinds: map[string]string{}} }

// do runs f inside a span and records it; f receives the span's id so
// nested calls can name it as their parent.
func (t *tracer) do(name, req string, parent int64, f func(id int64)) {
	id := t.next.Add(1)
	start := time.Since(t.t0)
	f(id)
	t.add(span{id: id, parent: parent, name: name, req: req, start: start, end: time.Since(t.t0)})
}

func (t *tracer) add(s span) {
	if s.id == 0 {
		s.id = t.next.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) kind(req, k string) {
	t.mu.Lock()
	t.kinds[req] = k
	t.mu.Unlock()
}

// tracedHandler records a server.handler span around every ServeHTTP.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Since(th.tr.t0)
	th.h.ServeHTTP(w, r)
	th.tr.add(span{name: "server.handler", req: r.Header.Get("X-Request-Id"), start: start, end: time.Since(th.tr.t0)})
}

// inproc is an idled server embedded in this process, serving on a
// loopback listener through an optional traced handler.
type inproc struct {
	srv       *server.Server
	rec       *obs.Recorder
	base      string
	hs        *http.Server
	cancel    context.CancelFunc
	served    chan error
	audit     *os.File
	auditPath string
}

// startInproc boots server.New with the daemon's configuration for the
// workload. With a tracer, New and every ServeHTTP are spans.
func startInproc(w workload, areas []server.AreaState, work, tag string, tr *tracer) (*inproc, error) {
	p := &inproc{rec: obs.NewRecorder("perfbench", nil, nil), served: make(chan error, 1)}
	cfg := server.Config{Addr: "127.0.0.1:0", Areas: areas, Recorder: p.rec}
	if w.audit {
		p.auditPath = filepath.Join(work, "audit-"+tag+".jsonl")
		f, err := os.Create(p.auditPath)
		if err != nil {
			return nil, err
		}
		p.audit, cfg.AuditLog = f, f
	}
	var err error
	boot := func(int64) { p.srv, err = server.New(cfg) }
	if tr != nil {
		tr.do("server.New", "boot", 0, boot)
	} else {
		boot(0)
	}
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = p.srv.Handler()
	if tr != nil {
		h = tracedHandler{h: h, tr: tr}
	}
	p.base = "http://" + ln.Addr().String()
	p.hs = &http.Server{Handler: h}
	go p.hs.Serve(ln)
	// Serve runs the sampler and, on cancel, drains and flushes the
	// audit log; its own listener stays idle.
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	go func() { p.served <- p.srv.Serve(ctx) }()
	return p, nil
}

func (p *inproc) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	p.cancel()
	if serr := <-p.served; serr != nil && err == nil {
		err = serr
	}
	if p.audit != nil {
		if cerr := p.audit.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// shadow re-executes each served request's layers through the modules'
// public functions, one span per layer call, right after the request
// returns. The instances are the benchmark's own (same areas, same
// defaults as the daemon); their spans are attributed to the request's
// handler span, whose remainder is what they leave unexplained.
type shadow struct {
	tr      *tracer
	cache   *server.Cache
	led     *ledger.Ledger
	rec     *obs.Recorder
	audit   *obs.JSONLWriter
	buildS  float64
	mu      sync.Mutex
	preps   map[prepKey]policy.Strategy
	states  map[string]server.AreaState
	filled  map[string]bool // area\x00engine entries the shadow cache holds
	tracks  map[string]*adaptive.Tracker
	idmap   map[string]string // served decision id -> shadow decision id
	nextDec atomic.Int64
}

func newShadow(w workload, areas []server.AreaState, tr *tracer, auditSink io.Writer) (*shadow, error) {
	eng, _ := policy.Lookup("")
	start := time.Now()
	cache, err := server.NewShardedCache(areas, []policy.Engine{eng}, 0)
	if err != nil {
		return nil, err
	}
	sh := &shadow{
		tr: tr, cache: cache, buildS: time.Since(start).Seconds(),
		led: ledger.New(ledger.Config{}), rec: obs.NewRecorder("shadow", nil, nil),
		preps: map[prepKey]policy.Strategy{}, states: map[string]server.AreaState{},
		filled: map[string]bool{}, tracks: map[string]*adaptive.Tracker{}, idmap: map[string]string{},
	}
	if w.audit {
		sh.audit = obs.NewJSONLWriter(auditSink, 8192)
	}
	for _, a := range areas {
		sh.states[strings.ToLower(a.ID)] = a
	}
	return sh, nil
}

func (sh *shadow) close() error { return sh.audit.Close() }

func (sh *shadow) strategy(eng policy.Engine, s policy.Stats) (policy.Strategy, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	k := prepKey{eng.Name(), s.B, s.Mu, s.Q}
	if p, ok := sh.preps[k]; ok {
		return p, nil
	}
	p, err := eng.Prepare(s)
	if err == nil {
		sh.preps[k] = p
	}
	return p, err
}

// replay is the client hook: it replays the op's requests layer by layer.
func (sh *shadow) replay(phase, i int, o *op, r *opResult) {
	id := fmt.Sprintf("p%d-%d", phase, i)
	switch o.Kind {
	case opDecide:
		sh.tr.kind(id, "decide")
		if len(r.decisions) == 1 {
			sh.decideRequest(id, o.body, r.decisions[0])
		}
	case opStop:
		sh.tr.kind(id, "decide")
		sh.tr.kind(id+"-settle", "settle")
		if len(r.decisions) == len(o.Batch.Requests) {
			sh.batchRequest(id, o, r)
			data, _ := json.Marshal(settleBody(o, r.decisions))
			sh.observeRequest(id+"-settle", data, o.Orphan)
		}
	case opObserve:
		sh.tr.kind(id, "observe")
		sh.observeRequest(id, o.body, -1)
	case opUpdate:
		sh.tr.kind(id, "update")
		sh.update(id, o)
	}
}

func (sh *shadow) decideRequest(id string, data []byte, d *decisionRec) {
	var in server.DecideRequest
	sh.tr.do("server.codec_decode", id, 0, func(int64) { _ = json.Unmarshal(data, &in) })
	sh.decideItem(id, 0, in, in.Seed, d.resp.DecisionID, "decide")
	sh.tr.do("server.codec_encode", id, 0, func(int64) { _ = json.NewEncoder(io.Discard).Encode(d.resp) })
}

func (sh *shadow) batchRequest(id string, o *op, r *opResult) {
	data := o.body
	var in server.BatchDecideRequest
	sh.tr.do("server.codec_decode", id, 0, func(int64) { _ = json.Unmarshal(data, &in) })
	sh.tr.do("parallel.map", id, 0, func(parent int64) {
		_, _ = parallel.Map(context.Background(), "perfbench_batch", len(in.Requests), 0,
			func(_ context.Context, k int) (struct{}, error) {
				sh.decideItem(id, parent, in.Requests[k], in.Seed, r.decisions[k].resp.DecisionID, "batch")
				return struct{}{}, nil
			})
	})
	out := server.BatchDecideResponse{Seed: in.Seed}
	for _, d := range r.decisions {
		resp := d.resp
		out.Results = append(out.Results, server.BatchItem{Decision: &resp})
	}
	sh.tr.do("server.codec_encode", id, 0, func(int64) { _ = json.NewEncoder(io.Discard).Encode(out) })
}

// decideItem mirrors one decision of the decide handler.
func (sh *shadow) decideItem(id string, parent int64, req server.DecideRequest, seed uint64, servedID, route string) {
	if req.Seed == 0 {
		req.Seed = seed
	}
	var eng policy.Engine
	sh.tr.do("policy.lookup", id, parent, func(int64) { eng, _ = policy.Lookup(req.Policy) })
	if eng == nil {
		return
	}
	area := strings.ToLower(req.Area)
	sh.mu.Lock()
	st := sh.states[area]
	key := area + "\x00" + eng.Name()
	lazy := eng.Name() != policy.DefaultEngine && !sh.filled[key]
	sh.filled[key] = true
	sh.mu.Unlock()
	b := req.B
	cached := b == 0 || b == st.B
	if cached {
		b = st.B
		name := "server.cache_read"
		if lazy {
			name = "server.cache_lazy_fill"
		}
		sh.tr.do(name, id, parent, func(int64) {
			if rec, ok := sh.cache.Area(area); ok {
				_, _ = sh.cache.StrategyParams(rec, eng, nil)
			}
		})
	} else {
		sh.tr.do("server.cache_read", id, parent, func(int64) { sh.cache.Area(area) })
		sh.tr.do("policy.prepare", id, parent, func(int64) { _, _ = eng.Prepare(policy.Stats{B: b, Mu: st.Mu, Q: st.Q}) })
	}
	prep, err := sh.strategy(eng, policy.Stats{B: b, Mu: st.Mu, Q: st.Q})
	if err != nil {
		return
	}
	var dec policy.Decision
	sh.tr.do("policy.draw", id, parent, func(int64) {
		rng := parallel.RNG(req.Seed, streamID(req.VehicleID, area, b))
		if p := req.Prediction; p != nil {
			pr := predict.Prediction{StopSec: p.PredictedStopSec, Confidence: 1}
			if p.M1 != nil && p.M2 != nil {
				pr.M1, pr.M2, pr.HasMoments = *p.M1, *p.M2, true
			}
			if adv, ok := prep.(policy.Advised); ok {
				dec = adv.DecideAdvised(rng, pr)
			}
			return
		}
		dec = prep.Decide(rng)
	})
	latName, cntName := obs.L("decide_area_ms", "area", area), obs.L("decide_area_total", "area", area)
	sh.tr.do("obs.metric_update", id, parent, func(int64) {
		sh.rec.Add("decide_cache_hits_total", 1)
		sh.rec.Add(obs.L("decide_total", "choice", dec.Choice), 1)
		sh.rec.Observe("decide_threshold_sec", dec.ThresholdSec)
		sh.rec.Add(cntName, 1)
		sh.rec.Observe(latName, 0.01)
		sh.rec.Add(obs.L("http_requests_total", "route", route, "code", "200"), 1)
		sh.rec.Observe(obs.L("http_request_ms", "route", route), 0.02)
	})
	var shadowID string
	if req.Ledger {
		shadowID = fmt.Sprintf("shadow-%d", sh.nextDec.Add(1))
		var bound float64
		if bd, ok := prep.(policy.Bounded); ok {
			bound = bd.WorstCaseCRBound()
		}
		sh.tr.do("ledger.issue", id, parent, func(int64) {
			_, _ = sh.led.Issue(ledger.Pending{ID: shadowID, Area: area, Engine: policy.Spec(eng), B: b,
				ThresholdSec: dec.ThresholdSec, Bound: bound, IssuedUnixMS: time.Now().UnixMilli()})
		})
		sh.mu.Lock()
		sh.idmap[servedID] = shadowID
		sh.mu.Unlock()
	}
	if sh.audit != nil {
		sh.tr.do("obs.audit_write", id, parent, func(int64) {
			sh.audit.Write(server.AuditRecord{TSUnixMS: time.Now().UnixMilli(), RequestID: id, VehicleID: req.VehicleID,
				Area: area, StatsVersion: 1, B: b, Mu: st.Mu, Q: st.Q, Seed: req.Seed,
				Stream: streamID(req.VehicleID, area, b), Choice: dec.Choice, ThresholdSec: dec.ThresholdSec,
				Policy: eng.Name(), PolicyVersion: eng.Version(), Prediction: req.Prediction, DecisionID: servedID})
		})
	}
}

// observeRequest mirrors the observe batch handler.
func (sh *shadow) observeRequest(id string, data []byte, orphan int) {
	var in server.BatchObserveRequest
	sh.tr.do("server.codec_decode", id, 0, func(int64) { _ = json.Unmarshal(data, &in) })
	out := server.BatchObserveResponse{}
	for k, ob := range in.Observations {
		area := strings.ToLower(ob.Area)
		if ob.DecisionID != "" {
			sh.mu.Lock()
			sid, ok := sh.idmap[ob.DecisionID]
			sh.mu.Unlock()
			if !ok || k == orphan {
				sid = ob.DecisionID
			}
			sh.tr.do("ledger.settle", id, 0, func(int64) { _, _ = sh.led.Settle(sid, ob.StopSec, time.Now().UnixMilli()) })
		}
		sh.mu.Lock()
		b := sh.states[area].B
		tr := sh.tracks[area]
		if tr == nil {
			tr, _ = adaptive.NewTracker(adaptive.StreamConfig{B: b, Forgetting: 0.98, MinObservations: 50})
			sh.tracks[area] = tr
		}
		var up adaptive.StreamUpdate
		sh.tr.do("adaptive.observe", id, 0, func(int64) { up, _ = tr.Observe(ob.StopSec) })
		sh.mu.Unlock()
		if up.Alarm && up.Warm {
			sh.write(id, area, 0, up.Stats)
		}
		sh.tr.do("obs.metric_update", id, 0, func(int64) {
			sh.rec.Add("observe_total", 1)
			if ob.PredictedStopSec != nil {
				predict.RecordQuality(sh.rec, area, b, *ob.PredictedStopSec, ob.StopSec)
			}
			sh.rec.Add(obs.L("http_requests_total", "route", "observe_batch", "code", "200"), 1)
		})
		if sh.audit != nil {
			sh.tr.do("obs.audit_write", id, 0, func(int64) {
				sh.audit.Write(server.ObserveRecord{Kind: "observe", TSUnixMS: time.Now().UnixMilli(), RequestID: id,
					Area: area, Seq: up.Seen, B: b, Forgetting: 0.98, StopSec: ob.StopSec,
					W: up.WSum, MuSum: up.MuSum, QSum: up.QSum, Mu: up.Stats.MuBMinus, Q: up.Stats.QBPlus})
			})
		}
		res := server.ObserveResponse{Area: area, Seq: up.Seen, Warm: up.Warm, Mu: up.Stats.MuBMinus, Q: up.Stats.QBPlus}
		out.Results = append(out.Results, server.BatchObserveItem{Result: &res})
	}
	sh.tr.do("server.codec_encode", id, 0, func(int64) { _ = json.NewEncoder(io.Discard).Encode(out) })
}

// write applies a stats swap to the shadow cache (a retune or update).
func (sh *shadow) write(id, area string, b float64, s skirental.Stats) {
	var entry interface{ Info() server.AreaInfo }
	sh.tr.do("server.cache_write", id, 0, func(int64) {
		if e, err := sh.cache.Update(area, b, s); err == nil {
			entry = e
		}
	})
	if entry == nil {
		return
	}
	sh.mu.Lock()
	st := sh.states[area]
	st.Mu, st.Q = s.MuBMinus, s.QBPlus
	sh.states[area] = st
	for _, e := range []string{policy.MultislopeEngine, policy.SoftMLEngine, policy.DistAdviceEngine} {
		delete(sh.filled, area+"\x00"+e)
	}
	sh.mu.Unlock()
}

func (sh *shadow) update(id string, o *op) {
	data := o.body
	var in server.StatsUpdateRequest
	sh.tr.do("server.codec_decode", id, 0, func(int64) { _ = json.Unmarshal(data, &in) })
	area := strings.ToLower(o.Area)
	sh.write(id, area, in.B, skirental.Stats{MuBMinus: in.Mu, QBPlus: in.Q})
	sh.tr.do("obs.metric_update", id, 0, func(int64) {
		sh.rec.Add("stats_updates_total", 1)
		sh.rec.Add(obs.L("http_requests_total", "route", "stats_update", "code", "200"), 1)
	})
	info, _ := sh.cache.Get(area)
	if info != nil {
		sh.tr.do("server.codec_encode", id, 0, func(int64) { _ = json.NewEncoder(io.Discard).Encode(info.Info()) })
	}
}

// nopWriter is a ResponseWriter that keeps nothing.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopWriter) WriteHeader(int)             {}

// handlerAllocs calls ServeHTTP directly on n prebuilt decide requests
// of the plan and returns heap allocations per request.
func handlerAllocs(h http.Handler, ops []op, n int) float64 {
	var reqs []*http.Request
	var ws []*nopWriter
	for k := 0; len(reqs) < n && k < len(ops)*n; k++ {
		o := ops[k%len(ops)]
		var path string
		switch o.Kind {
		case opDecide:
			path = "/v1/decide"
		case opStop:
			path = "/v1/decide/batch"
		default:
			continue
		}
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(o.body))
		req.Header.Set("X-Request-Id", fmt.Sprintf("alloc-%d", len(reqs)))
		reqs = append(reqs, req)
		ws = append(ws, &nopWriter{h: http.Header{}})
	}
	if len(reqs) == 0 {
		return 0
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for k, req := range reqs {
		h.ServeHTTP(ws[k], req)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))
}

// prepareMicros times Prepare of every engine over the workload's areas.
func prepareMicros(areas []server.AreaState) map[string]float64 {
	out := map[string]float64{}
	for _, name := range []string{policy.DefaultEngine, policy.MultislopeEngine, policy.SoftMLEngine, policy.DistAdviceEngine} {
		eng, _ := policy.Lookup(name)
		var us []float64
		for k := 0; k < 32; k++ {
			a := areas[(k*7919)%len(areas)]
			start := time.Now()
			_, _ = eng.Prepare(a.PolicyStats(0))
			us = append(us, float64(time.Since(start))/float64(time.Microsecond))
		}
		out["policy.prepare_us."+name] = median(us)
	}
	return out
}

// pass is one in-process run of the plan.
type pass struct {
	res     []opResult
	listing []server.AreaInfo
	snap    obs.Snapshot
	rep     *checkReport
	prom    int
	allocs  float64
}

// runPass boots an in-process server, drives the plan open loop, and
// checks the outputs. A nil tracer is the untraced pass, which also
// counts handler allocations.
func runPass(ctx context.Context, w workload, areas []server.AreaState, pl plan, work, tag string, tr *tracer, sh *shadow) (*pass, error) {
	p, err := startInproc(w, areas, work, tag, tr)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = p.stop()
		}
	}()
	c := newClient(p.base, procs(), w.sloMS)
	defer c.close()
	if tr != nil {
		c.hook = sh.replay
		c.onCall = func(req string, start, end time.Time) {
			tr.add(span{name: "server.transport", req: req, start: start.Sub(tr.t0), end: end.Sub(tr.t0)})
		}
	}
	warmRes := c.openLoop(ctx, phaseWarm, pl.warm, procs())
	out := &pass{res: c.openLoop(ctx, phaseMain, pl.main, procs())}
	if tr == nil {
		out.allocs = handlerAllocs(p.srv.Handler(), pl.main, 400)
	}
	if out.listing, err = areaListing(ctx, c); err != nil {
		return nil, err
	}
	probeRes := c.openLoop(ctx, phaseProbe, pl.probe, procs())
	if out.snap, err = metricsSnapshot(ctx, c); err != nil {
		return nil, err
	}
	_, body, err := c.call(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	out.prom = len(body)
	stopped = true
	if err := p.stop(); err != nil {
		return nil, err
	}
	in := checkInput{boot: areas, listing: out.listing}
	if w.audit {
		in.audit = p.auditPath
	}
	collect(&in, append(append(warmRes, out.res...), probeRes...))
	out.rep, err = newOracle().check(in)
	return out, err
}

// plan is the request plan of one in-process pass.
type plan struct {
	warm, main, probe []op
}

// runTraced is the per-layer run: an untraced and a traced in-process
// pass over the same plan; their decide medians differ by the tracing
// overhead.
func runTraced(ctx context.Context, w workload, seed uint64, total time.Duration, work string) (*result, []*checkReport, error) {
	areas, err := w.areaStates()
	if err != nil {
		return nil, nil, err
	}
	// Each pass gets 40% of the seconds: a warm-up, the main plan, and
	// the probe phase, in the untraced run's proportions.
	warmDur, mainDur, _, probeDur := phases(total * 40 / 100 * 100 / 82)
	g := newGen(w, seed, areas)
	pl := plan{warm: g.mainPlan(warmDur), main: g.mainPlan(mainDur), probe: g.probePlan(probeDur)}

	plain, err := runPass(ctx, w, areas, pl, work, "plain", nil, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	var shadowSink io.Writer = io.Discard
	if w.audit {
		f, err := os.Create(filepath.Join(work, "shadow-audit.jsonl"))
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		shadowSink = f
	}
	sh, err := newShadow(w, areas, tr, shadowSink)
	if err != nil {
		return nil, nil, err
	}
	traced, err := runPass(ctx, w, areas, pl, work, "traced", tr, sh)
	if err != nil {
		return nil, nil, err
	}
	if err := sh.close(); err != nil {
		return nil, nil, err
	}

	m := layerMetrics(tr, traced, sh)
	for k, v := range prepareMicros(areas) {
		m[k] = v
	}
	m["server.handler_allocs"] = plain.allocs
	m["server.cache_build_s"] = sh.buildS
	plainDec := tail(latencies(plain.res, func(r *opResult) float64 { return r.decideMS })).p50
	tracedDec := tail(latencies(traced.res, func(r *opResult) float64 { return r.decideMS })).p50
	m["trace.overhead_us"] = (tracedDec - plainDec) * 1000
	m["loadgen.lag_p99_ms"] = tail(latencies(plain.res, func(r *opResult) float64 { return r.lagMS })).tail

	res := &result{Metrics: map[string]metricValue{}}
	all := append(append([]opResult{}, plain.res...), traced.res...)
	res.Attempted, res.Failed = tally(all)
	if err := fill(res, perLayer, m); err != nil {
		return nil, nil, err
	}
	printLayers(w, tr, res, plainDec, tracedDec)
	return res, []*checkReport{plain.rep, traced.rep}, nil
}

// layerStats are the per-layer span figures of a traced pass.
type layerStats struct {
	durs          map[string][]float64 // span durations by layer, µs
	self          map[string]float64   // summed self time by layer, µs
	transportSelf []float64            // round trip minus handler, decide requests, µs
	handlerDur    []float64            // handler span, decide requests, µs
	remainder     []float64            // handler minus its layer spans, decide requests, µs
	roundTrip     float64              // summed round trips, µs
}

// analyze computes self times: a span's self time is its duration minus
// the union of its children's intervals; a request's handler span counts
// the request's top-level layer spans as its children, and the transport
// span counts the handler.
func analyze(tr *tracer) layerStats {
	ls := layerStats{durs: map[string][]float64{}, self: map[string]float64{}}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	children := map[int64][]span{}
	byReq := map[string][]span{}
	// The warm-up replays too, keeping the shadow in step with the
	// server, but its spans stay out of the figures.
	warm := fmt.Sprintf("p%d-", phaseWarm)
	var spans []span
	for _, s := range tr.spans {
		if !strings.HasPrefix(s.req, warm) {
			spans = append(spans, s)
		}
	}
	for _, s := range spans {
		ls.durs[s.name] = append(ls.durs[s.name], us(s.dur()))
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
		byReq[s.req] = append(byReq[s.req], s)
	}
	for _, s := range spans {
		if s.name == "server.transport" || s.name == "server.handler" || s.name == "server.New" {
			continue
		}
		ls.self[s.name] += us(s.dur() - covered(s, children[s.id]))
	}
	reqs := make([]string, 0, len(byReq))
	for r := range byReq {
		reqs = append(reqs, r)
	}
	sort.Strings(reqs)
	for _, req := range reqs {
		var transport, handler *span
		var layers float64
		for k := range byReq[req] {
			s := &byReq[req][k]
			switch {
			case s.name == "server.transport":
				transport = s
			case s.name == "server.handler":
				handler = s
			case s.parent == 0 && s.name != "server.New":
				layers += us(s.dur())
			}
		}
		if transport == nil || handler == nil {
			continue
		}
		ls.roundTrip += us(transport.dur())
		ls.self["server.transport"] += us(transport.dur() - handler.dur())
		ls.self["server.handler (unattributed)"] += us(handler.dur()) - layers
		if tr.kinds[req] == "decide" {
			ls.transportSelf = append(ls.transportSelf, us(transport.dur()-handler.dur()))
			ls.handlerDur = append(ls.handlerDur, us(handler.dur()))
			ls.remainder = append(ls.remainder, us(handler.dur())-layers)
		}
	}
	return ls
}

// covered is the length of the union of the children's intervals,
// clipped to s.
func covered(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, s.start), min(k.end, s.end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for k, v := range iv {
		if k == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	return total + curB - curA
}

// layerMetrics reads the per-layer metrics off the spans and the
// traced server's registry.
func layerMetrics(tr *tracer, p *pass, sh *shadow) map[string]float64 {
	ls := analyze(tr)
	med := func(name string, scale float64) float64 {
		if xs := ls.durs[name]; len(xs) > 0 {
			return median(xs) * scale
		}
		return 0
	}
	counter := func(name string) float64 { v, _ := p.snap.CounterValue(name); return float64(v) }
	gauge := func(name string) float64 { v, _ := p.snap.GaugeValue(name); return v }
	hits, misses := counter("decide_cache_hits_total"), counter("decide_cache_misses_total")
	m := map[string]float64{
		"server.handler_us":          median0(ls.handlerDur),
		"server.transport_us":        median0(ls.transportSelf),
		"trace.unattributed_us":      median0(ls.remainder),
		"server.codec_decode_us":     med("server.codec_decode", 1),
		"server.codec_encode_us":     med("server.codec_encode", 1),
		"obs.metric_update_ns":       med("obs.metric_update", 1000),
		"server.cache_read_ns":       med("server.cache_read", 1000),
		"server.cache_hit_ratio":     hits / math.Max(hits+misses, 1),
		"server.cache_write_us":      med("server.cache_write", 1),
		"server.cache_lazy_fill_us":  med("server.cache_lazy_fill", 1),
		"server.cache_writes":        counter("stats_updates_total") + counter("retune_total"),
		"policy.draw_ns":             med("policy.draw", 1000),
		"parallel.map_us":            med("parallel.map", 1),
		"adaptive.observe_ns":        med("adaptive.observe", 1000),
		"adaptive.retunes":           counter("retune_total"),
		"ledger.issue_ns":            med("ledger.issue", 1000),
		"ledger.settle_ns":           med("ledger.settle", 1000),
		"ledger.pending":             gauge("ledger_pending"),
		"ledger.orphans":             counter("ledger_orphaned_total"),
		"ledger.paper_cost_mismatch": float64(p.rep.paperMismatch),
		"obs.audit_write_ns":         med("obs.audit_write", 1000),
		"obs.audit_dropped":          gauge("audit_dropped_records"),
		"obs.audit_unverified":       float64(p.rep.unverified),
		"obs.metrics_series":         float64(len(p.snap.Counters) + len(p.snap.Gauges) + len(p.snap.Histograms)),
		"obs.metrics_bytes":          float64(p.prom),
	}
	return m
}

func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// printLayers prints the self-time table and the per-layer metrics.
func printLayers(w workload, tr *tracer, res *result, plainDec, tracedDec float64) {
	ls := analyze(tr)
	fmt.Printf("workload %s (traced in-process pass): self time by layer\n", w.name)
	fmt.Printf("%-32s %8s %12s %14s %8s\n", "layer", "spans", "median_us", "self_total_ms", "share")
	names := make([]string, 0, len(ls.self))
	for n := range ls.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return ls.self[names[i]] > ls.self[names[j]] })
	for _, n := range names {
		key := strings.TrimSuffix(n, " (unattributed)")
		fmt.Printf("%-32s %8d %12.3f %14.3f %7.1f%%\n", n, len(ls.durs[key]), median0(ls.durs[key]),
			ls.self[n]/1000, 100*ls.self[n]/math.Max(ls.roundTrip, 1))
	}
	fmt.Printf("shares are of the summed round trips (%.3f ms); the handler row is the unattributed remainder\n", ls.roundTrip/1000)
	fmt.Printf("tracing overhead: decide p50 %.4f ms traced vs %.4f ms untraced (%+.1f us)\n",
		tracedDec, plainDec, (tracedDec-plainDec)*1000)
	for _, d := range perLayer {
		fmt.Printf("%s = %.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
}
