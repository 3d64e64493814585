package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"strings"
	"time"

	"idlereduce/internal/ledger"
	"idlereduce/internal/obs"
	"idlereduce/internal/parallel"
	"idlereduce/internal/policy"
	"idlereduce/internal/predict"
	"idlereduce/internal/skirental"
)

// requestStream derives the deterministic RNG stream ID of one decide
// request from its identifying fields. Together with the root seed it
// makes every reply a pure function of (seed, vehicle_id, area, b):
// independent of scheduling, worker count, batch position and sibling
// requests.
func requestStream(vehicleID, area string, b float64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(vehicleID))
	h.Write([]byte{0})
	h.Write([]byte(area))
	h.Write([]byte{0})
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(b))
	h.Write(buf[:])
	return h.Sum64()
}

// policyLookupError maps a policy.Lookup failure onto the wire error
// contract: malformed specs are plain bad_request; well-formed specs
// naming no servable engine (unknown name, version pin mismatch) are
// unknown_policy. Both are client errors, never 5xx.
func policyLookupError(err error) *APIError {
	code := "unknown_policy"
	if errors.Is(err, policy.ErrBadSpec) {
		code = "bad_request"
	}
	return &APIError{Code: code, Message: err.Error(), Status: http.StatusBadRequest}
}

// prepareStandalone prepares a strategy outside the cache (the custom-B
// path), honoring resolved engine parameters when present.
func prepareStandalone(eng policy.Engine, s policy.Stats, params map[string]float64) (policy.Strategy, error) {
	if len(params) > 0 {
		pe, ok := eng.(policy.Parametric)
		if !ok {
			return nil, fmt.Errorf("%w: engine %s accepts no params", policy.ErrBadParams, eng.Name())
		}
		return pe.PrepareParams(s, params)
	}
	return eng.Prepare(s)
}

// enginePrepareError maps an Engine.Prepare failure. The default
// constrained engine keeps the pre-engine wire shape (422
// invalid_stats); a request that opted into another engine gets 400
// invalid_policy_params — the area is servable, the requested engine's
// parameterization is not. Parameter-validation failures are
// invalid_policy_params regardless of engine.
func enginePrepareError(eng policy.Engine, area string, b float64, err error) *APIError {
	if errors.Is(err, policy.ErrBadParams) {
		return &APIError{Code: "invalid_policy_params", Message: err.Error(), Status: http.StatusBadRequest}
	}
	if eng.Name() == policy.DefaultEngine {
		return &APIError{Code: "invalid_stats", Message: fmt.Sprintf("area %s statistics are infeasible for b = %v: %v", area, b, err), Status: http.StatusUnprocessableEntity}
	}
	return &APIError{Code: "invalid_policy_params", Message: fmt.Sprintf("engine %s cannot serve area %s at b = %v: %v", policy.Spec(eng), area, b, err), Status: http.StatusBadRequest}
}

// wireSchedule converts an engine action ladder to the wire shape.
func wireSchedule(actions []policy.Action) []ScheduleAction {
	if len(actions) == 0 {
		return nil
	}
	out := make([]ScheduleAction, len(actions))
	for i, a := range actions {
		out[i] = ScheduleAction{State: a.State, AtSec: a.AtSec}
	}
	return out
}

// decide computes one decision. It returns the structured API error to
// send instead of an (error, status) pair so the batch path can embed
// failures per item. ctx carries the request id and (when tracing is
// on) the span the decision annotates; with an audit log configured
// the decision is appended as a replayable AuditRecord. Both are
// gated on a nil check so the disabled path stays free.
//
// The serving engine is the daemon default unless the request names
// one; decisions from the default constrained engine keep the exact
// pre-engine wire bytes (no policy/schedule/explain fields).
func (s *Server) decide(ctx context.Context, req DecideRequest, defaultSeed uint64) (*DecideResponse, *APIError) {
	if req.VehicleID == "" {
		return nil, &APIError{Code: "bad_request", Message: "vehicle_id is required", Status: http.StatusBadRequest}
	}
	if req.Area == "" {
		return nil, &APIError{Code: "bad_request", Message: "area is required", Status: http.StatusBadRequest}
	}
	if math.IsNaN(req.B) || math.IsInf(req.B, 0) || req.B < 0 {
		return nil, &APIError{Code: "bad_request", Message: fmt.Sprintf("b = %v must be a finite non-negative break-even interval", req.B), Status: http.StatusBadRequest}
	}
	eng := s.engine
	if req.Policy != "" {
		var err error
		if eng, err = policy.Lookup(req.Policy); err != nil {
			return nil, policyLookupError(err)
		}
	}
	// Resolve engine params before touching the cache so every cache
	// key carries validated, default-filled parameters — one canonical
	// map per semantic parameterization.
	var params map[string]float64
	if len(req.Params) > 0 {
		pe, ok := eng.(policy.Parametric)
		if !ok {
			return nil, &APIError{Code: "invalid_policy_params",
				Message: fmt.Sprintf("engine %s accepts no params", policy.Spec(eng)), Status: http.StatusBadRequest}
		}
		resolved, err := policy.ResolveParams(pe, req.Params)
		if err != nil {
			return nil, &APIError{Code: "invalid_policy_params", Message: err.Error(), Status: http.StatusBadRequest}
		}
		params = resolved
	}
	var pred *predict.Prediction
	if req.Prediction != nil {
		p, err := req.Prediction.toPrediction()
		if err != nil {
			return nil, &APIError{Code: "invalid_prediction", Message: err.Error(), Status: http.StatusBadRequest}
		}
		pred = &p
	}
	sl, ok := s.cache.slot(req.Area)
	if !ok {
		return nil, &APIError{Code: "unknown_area", Message: fmt.Sprintf("unknown area %q", req.Area), Status: http.StatusNotFound}
	}
	rec := sl.view.Load().rec
	// Per-area latency attribution: the slot formats the area's metric
	// names on its first decide and keeps them, so the hot path pays
	// two map lookups and a clock read, never a label format.
	t0 := time.Now()

	// Cache hit: the request uses the area's default break-even
	// interval, so the (area, engine) strategy comes from the
	// precomputed cache keyspace. A custom B prepares a fresh strategy
	// from the same statistics.
	b := req.B
	cached := b == 0 || b == rec.state.B
	sh := s.cache.shardFor(rec.state.ID)
	var prep policy.Strategy
	if cached {
		b = rec.state.B
		// The entry is always prepared from rec — a stats swap landing
		// since the lookup above yields an uncached strategy for rec, not
		// one for the newer record — so the reply and audit record below
		// describe exactly the strategy served.
		entry, err := s.cache.strategyIn(sl, rec, eng, params)
		if err != nil {
			return nil, enginePrepareError(eng, rec.state.ID, b, err)
		}
		prep = entry.prep
		s.rec.Add("decide_cache_hits_total", 1)
		s.rec.Add(sh.hitMetric, 1)
	} else {
		s.rec.Add("decide_cache_misses_total", 1)
		s.rec.Add(sh.missMetric, 1)
		p, err := prepareStandalone(eng, rec.state.PolicyStats(b), params)
		if err != nil {
			return nil, enginePrepareError(eng, rec.state.ID, b, err)
		}
		prep = p
	}

	seed := req.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	stream := requestStream(req.VehicleID, rec.state.ID, b)
	rng := parallel.RNG(seed, stream)
	var dec policy.Decision
	if pred != nil {
		adv, ok := prep.(policy.Advised)
		if !ok {
			return nil, &APIError{Code: "invalid_prediction",
				Message: fmt.Sprintf("engine %s does not accept predictions", policy.Spec(eng)), Status: http.StatusBadRequest}
		}
		dec = adv.DecideAdvised(rng, *pred)
		s.rec.Add("decide_prediction_total", 1)
	} else {
		dec = prep.Decide(rng)
	}

	if s.cfg.testDelay > 0 {
		time.Sleep(s.cfg.testDelay)
	}
	if s.cfg.testHook != nil {
		s.cfg.testHook()
	}
	s.rec.Add(obs.L("decide_total", "choice", dec.Choice), 1)
	s.rec.Observe("decide_threshold_sec", dec.ThresholdSec)
	names := sl.metricNames()
	s.rec.Add(names.cnt, 1)
	s.rec.Observe(names.lat, float64(time.Since(t0))/float64(time.Millisecond))
	if s.tracer != nil {
		if sp := obs.SpanFrom(ctx); sp != nil {
			sp.Set("area", rec.state.ID)
			sp.Set("stats_version", rec.version)
			sp.Set("b", b)
			sp.Set("choice", dec.Choice)
			sp.Set("threshold_sec", dec.ThresholdSec)
			sp.Set("stream", stream)
			if eng.Name() != policy.DefaultEngine {
				sp.Set("policy", policy.Spec(eng))
			}
		}
	}
	// Ledger opt-in: mint a decision id and enter the decision into the
	// pending table so a later observe can settle it against the
	// realized stop. The bound travels with the entry (the ledger stays
	// policy-free); strategies that publish none enter with bound 0.
	var decisionID string
	var crBound float64
	if req.Ledger {
		if bd, ok := prep.(policy.Bounded); ok {
			crBound = bd.WorstCaseCRBound()
		}
		decisionID = s.newDecisionID()
		if _, err := s.ledger.Issue(ledger.Pending{
			ID:           decisionID,
			Area:         rec.state.ID,
			Engine:       policy.Spec(eng),
			Params:       params,
			B:            b,
			ThresholdSec: dec.ThresholdSec,
			Bound:        crBound,
			IssuedUnixMS: time.Now().UnixMilli(),
		}); err != nil {
			// Unreachable with minted ids and validated decisions; count
			// loudly rather than fail the decision if it ever happens.
			s.rec.Add("ledger_issue_failed_total", 1)
			decisionID = ""
		} else {
			s.rec.Add("ledger_issued_total", 1)
		}
	}
	if s.tracer != nil && decisionID != "" {
		if sp := obs.SpanFrom(ctx); sp != nil {
			sp.Set("decision_id", decisionID)
		}
	}
	if s.auditW != nil {
		s.auditW.Write(AuditRecord{
			TSUnixMS:      time.Now().UnixMilli(),
			RequestID:     obs.RequestIDFrom(ctx),
			VehicleID:     req.VehicleID,
			Area:          rec.state.ID,
			StatsVersion:  rec.version,
			B:             b,
			Mu:            rec.state.Mu,
			Q:             rec.state.Q,
			Seed:          seed,
			Stream:        stream,
			Choice:        dec.Choice,
			ThresholdSec:  dec.ThresholdSec,
			Policy:        eng.Name(),
			PolicyVersion: eng.Version(),
			Schedule:      wireSchedule(dec.Schedule),
			Params:        params,
			Prediction:    req.Prediction,
			DecisionID:    decisionID,
			CRBound:       crBound,
		})
	}
	resp := &DecideResponse{
		VehicleID:     req.VehicleID,
		Area:          rec.state.ID,
		B:             b,
		Choice:        dec.Choice,
		ThresholdSec:  dec.ThresholdSec,
		WorstCaseCost: dec.WorstCaseCost,
		WorstCaseCR:   dec.WorstCaseCR,
		Seed:          seed,
		Cached:        cached,
	}
	if eng.Name() != policy.DefaultEngine {
		resp.Policy = policy.Spec(eng)
		resp.Schedule = wireSchedule(dec.Schedule)
		resp.Explain = prep.Explain()
	}
	resp.DecisionID = decisionID
	return resp, nil
}

// handleDecide serves POST /v1/decide.
func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	var req DecideRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decode request: "+err.Error())
		return
	}
	if r.Header.Get(ledgerHeader) != "" {
		req.Ledger = true
	}
	resp, apiErr := s.decide(r.Context(), req, s.cfg.RootSeed)
	if apiErr != nil {
		writeError(w, apiErr.Status, apiErr.Code, apiErr.Message)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleBatch serves POST /v1/decide/batch: the items fan out over the
// deterministic worker pool and merge back in input order. Item
// failures are embedded per slot, so a batch reply is always 200 once
// it passes structural validation.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchDecideRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decode request: "+err.Error())
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "requests is empty")
		return
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("batch of %d exceeds max %d", len(req.Requests), s.cfg.MaxBatch))
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.RootSeed
	}
	if r.Header.Get(ledgerHeader) != "" {
		for i := range req.Requests {
			req.Requests[i].Ledger = true
		}
	}
	ctx := obs.WithRecorder(r.Context(), s.rec)
	parent := obs.SpanFrom(ctx)
	results, err := parallel.Map(ctx, "server_batch", len(req.Requests), s.cfg.Workers,
		func(ictx context.Context, i int) (BatchItem, error) {
			// Each batch item gets its own child span (same request
			// id) so the fan-out stays attributable per decision.
			if parent != nil {
				child := parent.Child("decide_item")
				child.Set("index", i)
				defer child.End()
				ictx = obs.ContextWithSpan(ictx, child)
			}
			resp, apiErr := s.decide(ictx, req.Requests[i], seed)
			if apiErr != nil {
				return BatchItem{Error: apiErr}, nil
			}
			return BatchItem{Decision: resp}, nil
		})
	if err != nil {
		// Only context cancellation/timeout reaches here: per-item
		// errors are embedded in the slots above.
		writeError(w, http.StatusServiceUnavailable, "internal", "batch aborted: "+err.Error())
		return
	}
	s.rec.Add("batch_decisions_total", int64(len(results)))
	writeJSON(w, http.StatusOK, BatchDecideResponse{Seed: seed, Results: results})
}

// handleStatsUpdate serves PUT /v1/areas/{id}/stats.
func (s *Server) handleStatsUpdate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req StatsUpdateRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decode request: "+err.Error())
		return
	}
	entry, err := s.cache.Update(id, req.B, skirental.Stats{MuBMinus: req.Mu, QBPlus: req.Q})
	if err != nil {
		if _, ok := s.cache.Get(id); !ok {
			writeError(w, http.StatusNotFound, "unknown_area", err.Error())
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "invalid_stats", err.Error())
		return
	}
	s.rec.Add("stats_updates_total", 1)
	writeJSON(w, http.StatusOK, entry.Info())
}

// handleAreas serves GET /v1/areas. An optional ?policy= query renders
// the listing through another engine; areas that engine cannot serve
// carry an error field instead of strategy fields, so one infeasible
// area never hides the rest.
func (s *Server) handleAreas(w http.ResponseWriter, r *http.Request) {
	eng := s.engine
	if spec := r.URL.Query().Get("policy"); spec != "" {
		var err error
		if eng, err = policy.Lookup(spec); err != nil {
			apiErr := policyLookupError(err)
			writeError(w, apiErr.Status, apiErr.Code, apiErr.Message)
			return
		}
	}
	recs := s.cache.Areas()
	resp := AreasResponse{Areas: make([]AreaInfo, 0, len(recs))}
	for _, rec := range recs {
		st, err := s.cache.Strategy(rec, eng)
		if err != nil {
			resp.Areas = append(resp.Areas, AreaInfo{
				ID:      rec.state.ID,
				B:       rec.state.B,
				Mu:      rec.state.Mu,
				Q:       rec.state.Q,
				Version: rec.version,
				Policy:  eng.Name(),
				Error:   err.Error(),
			})
			continue
		}
		resp.Areas = append(resp.Areas, st.Info())
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePolicies serves GET /v1/policies: the registered policy
// engines, their pinned specs, and which one this daemon serves by
// default.
func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	names := policy.Names()
	resp := PoliciesResponse{Policies: make([]PolicyInfo, 0, len(names))}
	for _, n := range names {
		e, ok := policy.Get(n)
		if !ok {
			continue
		}
		info := PolicyInfo{
			Name:    n,
			Version: e.Version(),
			Spec:    policy.Spec(e),
			Doc:     e.Doc(),
			Default: n == s.engine.Name(),
		}
		if pe, ok := e.(policy.Parametric); ok {
			info.Params = pe.Params()
		}
		resp.Policies = append(resp.Policies, info)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz serves GET /healthz. It bypasses the in-flight limiter
// so liveness probes keep passing while decision load is shed.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	bi := readBuildInfo()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:      "ok",
		UptimeMS:    time.Since(s.start).Milliseconds(),
		Areas:       s.cache.Len(),
		Version:     bi.Version,
		GoVersion:   bi.GoVersion,
		StartUnixMS: s.start.UnixMilli(),
	})
}

// handleBuildInfo serves GET /v1/buildinfo: the serving binary's build
// provenance so dashboards and load reports can label runs.
func (s *Server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	bi := readBuildInfo()
	writeJSON(w, http.StatusOK, BuildInfoResponse{
		Version:     bi.Version,
		GoVersion:   bi.GoVersion,
		Revision:    bi.Revision,
		VCSTime:     bi.VCSTime,
		VCSModified: bi.Modified,
		StartUnixMS: s.start.UnixMilli(),
		UptimeMS:    time.Since(s.start).Milliseconds(),
	})
}

// handleHistory serves GET /v1/history: the ring-buffer sampler's
// retained metrics window (windowed rates plus rolling quantiles). It
// bypasses the limiter so dashboards keep rendering under overload.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sampler.History())
}

// handleMetrics serves GET /metrics: the obs registry snapshot in
// Prometheus text format, or JSON with ?format=json. The bounded
// trace/audit writers are lossy by design; their drop counts are
// refreshed into gauges here so a scrape always sees them.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.tracer != nil {
		s.rec.Set("trace_dropped_records", float64(s.tracer.Dropped()))
	}
	if s.auditW != nil {
		s.rec.Set("audit_dropped_records", float64(s.auditW.Dropped()))
	}
	// Ledger pending depth and TTL/capacity expiries happen off the
	// request paths; refresh them into gauges so a scrape always sees
	// the current join plane.
	s.rec.Set("ledger_pending", float64(s.ledger.PendingCount()))
	s.rec.Set("ledger_expired_total", float64(s.ledger.Counters().Expired))
	snap := s.rec.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = snap.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	_ = snap.WritePrometheus(w)
}

// handleNotFound is the structured-JSON fallthrough for unknown routes
// and wrong methods (the catch-all pattern shadows the mux's built-in
// 405, so method mismatches are re-derived here).
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	if methods := allowedMethods(r.URL.Path); len(methods) > 0 {
		w.Header().Set("Allow", strings.Join(methods, ", "))
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("%s %s not allowed (allow: %s)", r.Method, r.URL.Path, strings.Join(methods, ", ")))
		return
	}
	writeError(w, http.StatusNotFound, "not_found",
		fmt.Sprintf("no route %s %s", r.Method, r.URL.Path))
}

// allowedMethods returns the methods a known path serves; empty for
// unknown paths.
func allowedMethods(path string) []string {
	switch path {
	case "/v1/decide", "/v1/decide/batch", "/v1/observe", "/v1/observe/batch":
		return []string{http.MethodPost}
	case "/v1/areas", "/v1/policies", "/v1/cr", "/v1/history", "/v1/buildinfo", "/healthz", "/metrics":
		return []string{http.MethodGet}
	case "/v1/snapshot":
		return []string{http.MethodGet, http.MethodPost}
	}
	if strings.HasPrefix(path, "/v1/areas/") && strings.HasSuffix(path, "/stats") {
		return []string{http.MethodPut}
	}
	return nil
}
