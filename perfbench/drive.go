package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"idlereduce/internal/server"
)

// decisionRec is one served decision, kept for the output check.
type decisionRec struct {
	phase, op, item int
	// req is the item as sent, with the effective root seed filled in.
	req   server.DecideRequest
	raw   []byte
	resp  server.DecideResponse
	reqID string
	stop  float64
}

// settleRec is one settled ledger decision: the served cost pair.
type settleRec struct {
	dec         *decisionRec
	online, opt float64
}

// observeRec is one accepted observation and its reply.
type observeRec struct {
	req  server.ObserveRequest
	resp server.ObserveResponse
}

// updateRec is one accepted stats update and its reply.
type updateRec struct {
	area string
	req  server.StatsUpdateRequest
	info server.AreaInfo
}

// opResult is the outcome of one executed op.
type opResult struct {
	done bool
	kind opKind
	// fin is when the op completed, from the start of a closed-loop phase.
	fin time.Duration
	// decideMS and observeMS are the latencies of the decide and observe
	// requests of the op (0 when it had none); updateMS and scrapeMS
	// likewise. Open-loop latencies run from the scheduled send time.
	decideMS, observeMS, updateMS, scrapeMS float64
	lagMS                                   float64
	// requests counts HTTP requests sent (scrapes excluded); sloOK
	// those that returned 2xx, without failed items, within the limit.
	requests, sloOK, failed, orphans int
	decisions                        []*decisionRec
	settles                          []settleRec
	observes                         []observeRec
	update                           *updateRec
	errs                             []string
}

// client drives one idled over HTTP.
type client struct {
	base  string
	hc    *http.Client
	sloMS float64
	// hook runs after each op on the worker that executed it, and onCall
	// after each request with its round-trip interval: the traced run
	// records spans and replays the op's layers there.
	hook   func(phase, i int, o *op, r *opResult)
	onCall func(reqID string, start, end time.Time)
}

func newClient(base string, conns int, sloMS float64) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, sloMS: sloMS}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and returns the status and body.
func (c *client) call(ctx context.Context, method, path, reqID string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if c.onCall != nil && reqID != "" {
		c.onCall(reqID, start, time.Now())
	}
	return resp.StatusCode, data, err
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// exec runs one op. Latencies run from `from`: when the op was
// dispatched (open loop) or sent (closed loop).
func (c *client) exec(ctx context.Context, phase, i int, o *op, from time.Time) opResult {
	r := opResult{done: true, kind: o.Kind}
	id := fmt.Sprintf("p%d-%d", phase, i)
	fail := func(format string, args ...any) {
		r.failed++
		if len(r.errs) < 3 {
			r.errs = append(r.errs, fmt.Sprintf("%s op %d: ", o.Kind, i)+fmt.Sprintf(format, args...))
		}
	}
	// finish books one request into the SLO count.
	finish := func(ok bool, ms float64) {
		r.requests++
		if ok && ms <= c.sloMS {
			r.sloOK++
		}
	}
	switch o.Kind {
	case opDecide:
		code, body, err := c.call(ctx, http.MethodPost, "/v1/decide", id, o.body)
		r.decideMS = msSince(from)
		ok := err == nil && code == http.StatusOK
		if ok {
			d := &decisionRec{phase: phase, op: i, req: *o.Decide, raw: bytes.TrimSuffix(body, []byte("\n")), reqID: id, stop: o.Stops[0]}
			if err := json.Unmarshal(d.raw, &d.resp); err != nil {
				ok = false
			} else {
				r.decisions = append(r.decisions, d)
			}
		}
		if !ok {
			fail("decide: status %d err %v body %.200s", code, err, body)
		}
		finish(ok, r.decideMS)
	case opStop:
		c.execStop(ctx, phase, i, o, from, id, &r, fail, finish)
	case opObserve:
		code, body, err := c.call(ctx, http.MethodPost, "/v1/observe/batch", id, o.body)
		r.observeMS = msSince(from)
		ok := err == nil && code == http.StatusOK
		var rep server.BatchObserveResponse
		if ok && json.Unmarshal(body, &rep) == nil && len(rep.Results) == len(o.Observe.Observations) {
			for k, it := range rep.Results {
				if it.Result == nil {
					ok = false
					continue
				}
				r.observes = append(r.observes, observeRec{req: o.Observe.Observations[k], resp: *it.Result})
			}
		} else {
			ok = false
		}
		if !ok {
			fail("observe: status %d err %v body %.200s", code, err, body)
		}
		finish(ok, r.observeMS)
	case opUpdate:
		code, body, err := c.call(ctx, http.MethodPut, "/v1/areas/"+o.Area+"/stats", id, o.body)
		r.updateMS = msSince(from)
		ok := err == nil && code == http.StatusOK
		u := &updateRec{area: o.Area, req: *o.Update}
		if ok && json.Unmarshal(body, &u.info) == nil {
			r.update = u
		} else {
			ok = false
			fail("update: status %d err %v body %.200s", code, err, body)
		}
		finish(ok, r.updateMS)
	case opScrape:
		code, _, err := c.call(ctx, http.MethodGet, "/metrics", "", nil)
		r.scrapeMS = msSince(from)
		if err != nil || code != http.StatusOK {
			fail("scrape: status %d err %v", code, err)
		}
	}
	if c.hook != nil {
		c.hook(phase, i, o, &r)
	}
	return r
}

// execStop runs a ledger stop: the decide batch, then the observe batch
// settling every returned decision id (one corrupted on purpose when the
// op names an orphan).
func (c *client) execStop(ctx context.Context, phase, i int, o *op, from time.Time, id string, r *opResult,
	fail func(string, ...any), finish func(bool, float64)) {
	code, body, err := c.call(ctx, http.MethodPost, "/v1/decide/batch", id, o.body)
	r.decideMS = msSince(from)
	var rep struct {
		Seed    uint64 `json:"seed"`
		Results []struct {
			Decision json.RawMessage  `json:"decision"`
			Error    *server.APIError `json:"error"`
		} `json:"results"`
	}
	ok := err == nil && code == http.StatusOK && json.Unmarshal(body, &rep) == nil && len(rep.Results) == len(o.Batch.Requests)
	if ok {
		for k, it := range rep.Results {
			if it.Error != nil || it.Decision == nil {
				ok = false
				continue
			}
			req := o.Batch.Requests[k]
			if req.Seed == 0 {
				req.Seed = o.Batch.Seed
			}
			d := &decisionRec{phase: phase, op: i, item: k, req: req, raw: it.Decision, reqID: id, stop: o.Stops[k]}
			if json.Unmarshal(d.raw, &d.resp) != nil || d.resp.DecisionID == "" {
				ok = false
				continue
			}
			r.decisions = append(r.decisions, d)
		}
	}
	finish(ok, r.decideMS)
	if !ok {
		fail("decide batch: status %d err %v body %.200s", code, err, body)
		return
	}
	obs := settleBody(o, r.decisions)
	sent := time.Now()
	data, err := json.Marshal(obs)
	if err != nil {
		fail("settle batch: %v", err)
		return
	}
	code, body, err = c.call(ctx, http.MethodPost, "/v1/observe/batch", id+"-settle", data)
	r.observeMS = msSince(sent)
	var orep server.BatchObserveResponse
	ok = err == nil && code == http.StatusOK && json.Unmarshal(body, &orep) == nil && len(orep.Results) == len(obs.Observations)
	if ok {
		for k, it := range orep.Results {
			switch {
			case k == o.Orphan:
				if it.Error == nil || it.Error.Code != "unknown_decision" {
					ok = false
				} else {
					r.orphans++
				}
			case it.Result == nil || !it.Result.Settled:
				ok = false
			default:
				r.observes = append(r.observes, observeRec{req: obs.Observations[k], resp: *it.Result})
				r.settles = append(r.settles, settleRec{dec: r.decisions[k], online: it.Result.OnlineCost, opt: it.Result.OptCost})
			}
		}
	}
	if !ok {
		fail("settle batch: status %d err %v body %.200s", code, err, body)
	}
	finish(ok, r.observeMS)
}

// settleBody is the observe batch that settles a stop's decisions with
// their realized stops, the op's orphan item carrying a corrupted id.
func settleBody(o *op, decisions []*decisionRec) *server.BatchObserveRequest {
	body := &server.BatchObserveRequest{}
	for k, d := range decisions {
		ob := server.ObserveRequest{Area: d.req.Area, StopSec: d.stop, VehicleID: d.req.VehicleID, DecisionID: d.resp.DecisionID}
		if k == o.Orphan {
			ob.DecisionID += "-orphan"
		}
		if p := d.req.Prediction; p != nil {
			v := p.PredictedStopSec
			ob.PredictedStopSec = &v
		}
		body.Observations = append(body.Observations, ob)
	}
	return body
}

// openLoop sends ops at their scheduled times over `workers` connections.
// A request whose worker is still busy waits, and that wait counts in
// its latency.
func (c *client) openLoop(ctx context.Context, phase int, ops []op, workers int) []opResult {
	results := make([]opResult, len(ops))
	type dispatched struct {
		i  int
		at time.Time
	}
	queue := make(chan dispatched, len(ops)) // sized to the plan: the dispatcher never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queue {
				due := start.Add(ops[q.i].At)
				r := c.exec(ctx, phase, q.i, &ops[q.i], q.at)
				r.lagMS = float64(q.at.Sub(due)) / float64(time.Millisecond)
				results[q.i] = r
			}
		}()
	}
	for i := range ops {
		if d := time.Until(start.Add(ops[i].At)); d > 0 {
			time.Sleep(d)
		}
		queue <- dispatched{i: i, at: time.Now()}
	}
	close(queue)
	wg.Wait()
	return results
}

// closedLoop runs ops back to back on `workers` connections until dur
// passes or the plan runs out; latencies run from each send.
func (c *client) closedLoop(ctx context.Context, phase int, ops []op, workers int, dur time.Duration) ([]opResult, time.Duration) {
	results := make([]opResult, len(ops))
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				results[i] = c.exec(ctx, phase, i, &ops[i], time.Now())
				results[i].fin = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return results, time.Since(start)
}
