package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"idlereduce/internal/adaptive"
	"idlereduce/internal/ledger"
	"idlereduce/internal/obs"
	"idlereduce/internal/predict"
)

// RetuneConfig parameterizes the server-side observation stream: how
// fast the per-area running statistics forget, how many observations
// they need before being trusted, and how sensitive the CUSUM drift
// detector is. The zero value takes every default.
type RetuneConfig struct {
	// Forgetting is the exponential decay per observation in (0, 1].
	// The serving default is 0.98 (a ~50-stop memory), so the
	// estimates keep tracking a drifted regime between alarms instead
	// of averaging it into unbounded history.
	Forgetting float64
	// MinObservations gates re-tunes: an alarm before this many stops
	// in an area's stream is counted but does not re-derive strategies.
	// Default 50.
	MinObservations int
	// DriftThreshold/DriftSlack/DriftWarmup forward to
	// adaptive.DriftConfig (CUSUM h, allowance k, baseline length).
	// Zero takes that config's defaults.
	DriftThreshold float64
	DriftSlack     float64
	DriftWarmup    int
	// Disabled suppresses strategy re-derivation: observations still
	// accumulate and alarms are still counted, but the cache is never
	// touched (a shadow-mode deployment switch).
	Disabled bool
}

func (c RetuneConfig) withDefaults() RetuneConfig {
	if c.Forgetting == 0 {
		c.Forgetting = 0.98
	}
	if c.MinObservations == 0 {
		c.MinObservations = 50
	}
	return c
}

// streamConfig renders the tracker config for one area.
func (c RetuneConfig) streamConfig(b float64) adaptive.StreamConfig {
	return adaptive.StreamConfig{
		B:               b,
		Forgetting:      c.Forgetting,
		MinObservations: c.MinObservations,
		Drift: adaptive.DriftConfig{
			Threshold: c.DriftThreshold,
			Slack:     c.DriftSlack,
			Warmup:    c.DriftWarmup,
		},
	}
}

// validate checks the defaulted config by building one tracker: the
// trackers themselves are built per area on first observe, so a bad
// config must fail boot here rather than the first observation.
// Every served break-even interval is positive and finite, so the
// interval used here decides nothing.
func (c RetuneConfig) validate() error {
	if _, err := adaptive.NewTracker(c.streamConfig(1)); err != nil {
		return fmt.Errorf("server: retune config: %w", err)
	}
	return nil
}

// observer is one area's streaming estimator, held in the area's
// slot. tr stays nil until the area's first observation, and a nil
// tracker is the same stream as a fresh one (it snapshots as the zero
// adaptive.TrackerState). Observations on the same area serialize on
// mu so the stream is a deterministic function of the observation
// order; observations on different areas never contend.
type observer struct {
	mu sync.Mutex
	tr *adaptive.Tracker
}

// state exports the stream for a snapshot of an area served at
// break-even b. A stream not yet started, or left at a stale interval
// (it restarts on the next observation anyway), is "no stream": the
// zero state. The caller holds mu.
func (o *observer) state(b float64) adaptive.TrackerState {
	if o.tr == nil || o.tr.B() != b {
		return adaptive.TrackerState{}
	}
	return o.tr.State()
}

// observe applies one validated observation to an area's stream and
// performs the re-tune when a warm CUSUM alarm fires. It returns the
// wire response plus the tracker update for audit stamping.
func (s *Server) observe(ctx context.Context, req ObserveRequest) (*ObserveResponse, *APIError) {
	if req.Area == "" {
		return nil, &APIError{Code: "bad_request", Message: "area is required", Status: http.StatusBadRequest}
	}
	if math.IsNaN(req.StopSec) || math.IsInf(req.StopSec, 0) || req.StopSec < 0 {
		return nil, &APIError{Code: "bad_request", Message: fmt.Sprintf("stop_sec = %v must be a finite non-negative stop length", req.StopSec), Status: http.StatusBadRequest}
	}
	if req.PredictedStopSec != nil {
		if err := predict.New(*req.PredictedStopSec).Validate(); err != nil {
			return nil, &APIError{Code: "invalid_prediction", Message: err.Error(), Status: http.StatusBadRequest}
		}
	}
	sl, ok := s.cache.slot(req.Area)
	if !ok {
		return nil, &APIError{Code: "unknown_area", Message: fmt.Sprintf("unknown area %q", req.Area), Status: http.StatusNotFound}
	}

	// A decision id settles its ledger entry before the tracker absorbs
	// anything, so a failed join rejects the whole observation with the
	// statistics stream untouched (fail-closed).
	var settled *ledger.Outcome
	if req.DecisionID != "" {
		out, err := s.ledger.Settle(req.DecisionID, req.StopSec, time.Now().UnixMilli())
		switch {
		case errors.Is(err, ledger.ErrDuplicateSettle):
			return nil, &APIError{Code: "duplicate_settle", Message: err.Error(), Status: http.StatusConflict}
		case errors.Is(err, ledger.ErrUnknownDecision):
			s.rec.Add("ledger_orphaned_total", 1)
			return nil, &APIError{Code: "unknown_decision", Message: err.Error(), Status: http.StatusNotFound}
		case err != nil:
			// Stop validation already passed above; any residual failure
			// is a client-shaped bad request.
			return nil, &APIError{Code: "bad_request", Message: err.Error(), Status: http.StatusBadRequest}
		}
		settled = &out
		s.rec.Add("ledger_settled_total", 1)
		s.rec.Observe("ledger_join_ms", float64(out.JoinMS))
		s.rec.Set(obs.L("cr_empirical", "area", out.Pending.Area, "engine", out.Pending.Engine), out.CR)
		if out.Pending.Bound > 0 {
			s.rec.Set(obs.L("cr_bound", "area", out.Pending.Area, "engine", out.Pending.Engine), out.Pending.Bound)
		}
		if out.Breach {
			s.rec.Add("cr_breach_total", 1)
		}
	}

	o := &sl.obs
	o.mu.Lock()
	defer o.mu.Unlock()
	// Read the record under the observer lock: re-tunes of this area
	// run under the same lock, so the version stamped below is never
	// older than one an earlier observe of the stream already recorded.
	rec := sl.view.Load().rec
	// The area's first observation starts its stream. A stats update
	// may also have moved the break-even interval; the moments are only
	// meaningful at one B, so the stream restarts against the new
	// interval.
	if o.tr == nil || o.tr.B() != rec.state.B {
		tr, err := adaptive.NewTracker(s.retune.streamConfig(rec.state.B))
		if err != nil {
			return nil, &APIError{Code: "internal", Message: err.Error(), Status: http.StatusInternalServerError}
		}
		o.tr = tr
	}
	up, err := o.tr.Observe(req.StopSec)
	if err != nil {
		return nil, &APIError{Code: "bad_request", Message: err.Error(), Status: http.StatusBadRequest}
	}

	resp := &ObserveResponse{
		Area: rec.state.ID,
		Seq:  up.Seen,
		Warm: up.Warm,
		Mu:   up.Stats.MuBMinus,
		Q:    up.Stats.QBPlus,
		// The pre-observation version; overwritten on re-tune below.
		StatsVersion: rec.version,
	}
	if settled != nil {
		resp.Settled = true
		resp.OnlineCost = settled.Online
		resp.OptCost = settled.Opt
	}
	s.rec.Add("observe_total", 1)
	// A forecast riding along closes the prediction loop: the completed
	// stop grades it into the quality histograms and side counters.
	if req.PredictedStopSec != nil {
		predict.RecordQuality(s.rec, rec.state.ID, rec.state.B, *req.PredictedStopSec, req.StopSec)
	}
	if up.Alarm {
		resp.Alarm = true
		s.rec.Add("retune_alarms_total", 1)
		if up.Warm && !s.retune.Disabled {
			def, uerr := s.cache.Update(rec.state.ID, 0, up.Stats)
			if uerr != nil {
				// The estimates are feasible by construction, so a
				// rejection here is validation drift worth counting,
				// not a client error.
				s.rec.Add("retune_failed_total", 1)
			} else {
				resp.Retuned = true
				resp.StatsVersion = def.rec.version
				s.rec.Add("retune_total", 1)
			}
		}
	}

	if s.tracer != nil {
		if sp := obs.SpanFrom(ctx); sp != nil {
			sp.Set("area", rec.state.ID)
			sp.Set("seq", up.Seen)
			sp.Set("stop_sec", req.StopSec)
			sp.Set("alarm", resp.Alarm)
			sp.Set("retuned", resp.Retuned)
			sp.Set("stats_version", resp.StatsVersion)
			if settled != nil {
				sp.Set("decision_id", settled.Pending.ID)
				sp.Set("join_ms", settled.JoinMS)
			}
		}
	}
	if s.auditW != nil && settled != nil {
		// The settle record precedes the observe record, mirroring the
		// in-handler order: the join happened before the stream absorbed
		// the stop.
		s.auditW.Write(SettleRecord{
			Kind:         settleKind,
			TSUnixMS:     time.Now().UnixMilli(),
			RequestID:    obs.RequestIDFrom(ctx),
			DecisionID:   settled.Pending.ID,
			Area:         settled.Pending.Area,
			Engine:       settled.Pending.Engine,
			B:            settled.Pending.B,
			ThresholdSec: settled.Pending.ThresholdSec,
			StopSec:      req.StopSec,
			OnlineCost:   settled.Online,
			OptCost:      settled.Opt,
			Bound:        settled.Pending.Bound,
			JoinMS:       settled.JoinMS,
		})
	}
	if s.auditW != nil {
		s.auditW.Write(ObserveRecord{
			Kind:         observeKind,
			TSUnixMS:     time.Now().UnixMilli(),
			RequestID:    obs.RequestIDFrom(ctx),
			VehicleID:    req.VehicleID,
			Area:         rec.state.ID,
			Seq:          up.Seen,
			B:            rec.state.B,
			Forgetting:   s.retune.Forgetting,
			StopSec:      req.StopSec,
			PrevW:        up.PrevWSum,
			PrevMuSum:    up.PrevMuSum,
			PrevQSum:     up.PrevQSum,
			W:            up.WSum,
			MuSum:        up.MuSum,
			QSum:         up.QSum,
			Warm:         up.Warm,
			Alarm:        resp.Alarm,
			Retuned:      resp.Retuned,
			StatsVersion: resp.StatsVersion,
			Mu:           up.Stats.MuBMinus,
			Q:            up.Stats.QBPlus,
		})
	}
	return resp, nil
}

// handleObserve serves POST /v1/observe.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decode request: "+err.Error())
		return
	}
	resp, apiErr := s.observe(r.Context(), req)
	if apiErr != nil {
		writeError(w, apiErr.Status, apiErr.Code, apiErr.Message)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleObserveBatch serves POST /v1/observe/batch. Items apply
// strictly in input order — observations on one area form a sequential
// stream, so a parallel fan-out would make alarms depend on
// scheduling. Item failures are embedded per slot; a batch reply is
// always 200 once it passes structural validation.
func (s *Server) handleObserveBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchObserveRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", "decode request: "+err.Error())
		return
	}
	if len(req.Observations) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "observations is empty")
		return
	}
	if len(req.Observations) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("batch of %d exceeds max %d", len(req.Observations), s.cfg.MaxBatch))
		return
	}
	ctx := r.Context()
	resp := BatchObserveResponse{Results: make([]BatchObserveItem, len(req.Observations))}
	for i, o := range req.Observations {
		res, apiErr := s.observe(ctx, o)
		if apiErr != nil {
			resp.Results[i] = BatchObserveItem{Error: apiErr}
			continue
		}
		resp.Results[i] = BatchObserveItem{Result: res}
		resp.Accepted++
		if res.Alarm {
			resp.Alarms++
		}
		if res.Retuned {
			resp.Retunes++
		}
		if res.Settled {
			resp.Settled++
		}
	}
	s.rec.Add("observe_batch_total", 1)
	writeJSON(w, http.StatusOK, resp)
}
