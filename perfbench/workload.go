package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"idlereduce/internal/dist"
	"idlereduce/internal/fleet"
	"idlereduce/internal/policy"
	"idlereduce/internal/server"
)

// breakEven is the break-even interval every workload area is served at.
const breakEven = 28

// workload is one traffic mix against idled. Rates are open-loop
// requests per second during the main phase.
type workload struct {
	name string
	why  string
	// areas is the synthetic area count (server.SyntheticAreaStates);
	// 0 serves the three paper areas.
	areas int
	// audit turns the daemon's audit log on.
	audit bool
	// sloMS is the latency limit behind slo_ok_ratio.
	sloMS float64
	// boots is how many times set-up is repeated for setup_s.
	boots int

	decideRate float64 // single POST /v1/decide
	stopRate   float64 // 16-vehicle ledger stops: decide batch + settling observe batch

	// probeObserve / probeUpdate add a short probe phase for request
	// kinds the main mix lacks, so every end-to-end metric has samples.
	probeObserve bool
	probeUpdate  bool
}

// workloads is the benchmark's traffic catalogue, in BENCHMARK.json order.
var workloads = []workload{
	{
		name:  "hot_decide",
		why:   "three paper areas, single default-engine decides at a fixed rate: the fixed per-request cost of transport, middleware, JSON and metric labels",
		sloMS: 10, boots: 15,
		decideRate:   1000,
		probeObserve: true, probeUpdate: true,
	},
	{
		name:  "fleet_day",
		why:   "100k areas with audit, ledger-opted 16-vehicle batches over four engines settled by observe batches: ledger, audit, batch fan-out and lazy fills",
		areas: 100_000, audit: true, sloMS: 50, boots: 5,
		stopRate:    60,
		probeUpdate: true,
	},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// areaStates returns the areas the workload's daemon serves.
func (w workload) areaStates() ([]server.AreaState, error) {
	if w.areas == 0 {
		return server.DefaultAreaStates(breakEven)
	}
	return server.SyntheticAreaStates(w.areas, breakEven), nil
}

type opKind int

const (
	opDecide  opKind = iota // POST /v1/decide
	opStop                  // POST /v1/decide/batch, then POST /v1/observe/batch settling it
	opObserve               // POST /v1/observe/batch
	opUpdate                // PUT /v1/areas/{id}/stats
	opScrape                // GET /metrics
)

var opNames = [...]string{"decide", "stop", "observe", "update", "scrape"}

func (k opKind) String() string { return opNames[k] }

// op is one scheduled request of a plan.
type op struct {
	Kind opKind
	// At is the scheduled send time from the start of its phase.
	At time.Duration
	// Decide is the body of an opDecide; Batch the decide half of an
	// opStop.
	Decide *server.DecideRequest      `json:",omitempty"`
	Batch  *server.BatchDecideRequest `json:",omitempty"`
	// Stops are the realized stop lengths of the decisions, in whole
	// seconds: one for opDecide, one per batch item for opStop.
	Stops []float64 `json:",omitempty"`
	// Orphan is the opStop item whose decision id the settling observe
	// corrupts on purpose (-1 for none): the fail-closed 404 path.
	Orphan int
	// Observe is the body of an opObserve.
	Observe *server.BatchObserveRequest `json:",omitempty"`
	// Area and Update are the target and body of an opUpdate.
	Area   string                     `json:",omitempty"`
	Update *server.StatsUpdateRequest `json:",omitempty"`
	// body is the request body, encoded before the phase starts so the
	// generator spends no time marshalling while it measures.
	body []byte
}

// encodeBodies fills in every op's request body.
func encodeBodies(ops []op) []op {
	for i := range ops {
		var v any
		switch o := &ops[i]; o.Kind {
		case opDecide:
			v = o.Decide
		case opStop:
			v = o.Batch
		case opObserve:
			v = o.Observe
		case opUpdate:
			v = o.Update
		default:
			continue
		}
		data, err := json.Marshal(v)
		if err != nil {
			panic(err) // plain structs of strings and numbers always encode
		}
		ops[i].body = data
	}
	return ops
}

// stopModels are the paper areas' stop-length distributions; area i of
// a synthetic set draws its stops from stopModels[i%3]. stopMeans are
// their means (a numeric integral, so computed once).
var stopModels, stopMeans = func() ([]dist.Distribution, []float64) {
	var models []dist.Distribution
	var means []float64
	for _, a := range fleet.DefaultAreas() {
		d := a.StopLengthDistribution()
		models = append(models, d)
		means = append(means, d.Mean())
	}
	return models, means
}()

// gen draws one workload's requests from a seeded stream.
type gen struct {
	w     workload
	rng   *rand.Rand
	areas []server.AreaState
	seq   int
}

func newGen(w workload, seed uint64, areas []server.AreaState) *gen {
	return &gen{w: w, rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), areas: areas}
}

// stop draws one realized stop for area index i, rounded to whole
// seconds like a 1 Hz stop log; scale > 1 models a drifted regime.
func (g *gen) stop(i int, scale float64) float64 {
	return math.Round(stopModels[i%len(stopModels)].Sample(g.rng) * scale)
}

func (g *gen) seed() uint64 { return g.rng.Uint64()>>1 | 1 }

func (g *gen) vehicle(prefix string) string {
	g.seq++
	return fmt.Sprintf("%s%05d-%d", prefix, g.rng.IntN(20000), g.seq)
}

// decide draws one default-engine decide on area i.
func (g *gen) decide(i int) op {
	return op{
		Kind:   opDecide,
		Decide: &server.DecideRequest{VehicleID: g.vehicle("v"), Area: g.areas[i].ID, Seed: g.seed()},
		Stops:  []float64{g.stop(i, 1)},
	}
}

// fleetEngines is fleet_day's engine mix with its weights.
var fleetEngines = []struct {
	spec   string
	weight int
}{
	{policy.DefaultEngine, 3},
	{policy.MultislopeEngine, 3},
	{policy.SoftMLEngine, 2},
	{policy.DistAdviceEngine, 2},
}

// fleetStop draws one 16-vehicle stop on a random area: mixed engines,
// predictions for the learning-augmented ones, ~5% custom break-even
// slots, all opted into the ledger.
func (g *gen) fleetStop(index int) op {
	i := g.rng.IntN(len(g.areas))
	o := op{Kind: opStop, Batch: &server.BatchDecideRequest{Seed: g.seed()}, Orphan: -1}
	if index%32 == 31 {
		o.Orphan = g.rng.IntN(16)
	}
	for k := 0; k < 16; k++ {
		y := g.stop(i, 1)
		req := server.DecideRequest{VehicleID: g.vehicle("f"), Area: g.areas[i].ID, Ledger: true}
		n := g.rng.IntN(10)
		for _, e := range fleetEngines {
			if n < e.weight {
				req.Policy = e.spec
				break
			}
			n -= e.weight
		}
		if req.Policy == policy.DefaultEngine {
			req.Policy = ""
		}
		if g.rng.IntN(20) == 0 {
			req.B = float64(29 + g.rng.IntN(12))
		}
		switch req.Policy {
		case policy.SoftMLEngine:
			req.Prediction = &server.PredictionBlock{PredictedStopSec: math.Round(y * (0.5 + g.rng.Float64()))}
		case policy.DistAdviceEngine:
			m1 := stopMeans[i%len(stopMeans)] * (0.8 + 0.4*g.rng.Float64())
			m2 := m1 * m1 * (1.5 + g.rng.Float64())
			req.Prediction = &server.PredictionBlock{PredictedStopSec: math.Round(y * (0.5 + g.rng.Float64())), M1: &m1, M2: &m2}
		}
		o.Batch.Requests = append(o.Batch.Requests, req)
		o.Stops = append(o.Stops, y)
	}
	return o
}

// observeBatch draws 8 observations spread over all areas.
func (g *gen) observeBatch() op {
	req := &server.BatchObserveRequest{}
	for k := 0; k < 8; k++ {
		i := g.rng.IntN(len(g.areas))
		req.Observations = append(req.Observations, server.ObserveRequest{
			Area: g.areas[i].ID, StopSec: g.stop(i, 1), VehicleID: g.vehicle("o"),
		})
	}
	return op{Kind: opObserve, Observe: req}
}

// update draws a feasible stats swap for a random area, keeping B.
func (g *gen) update() op {
	i := g.rng.IntN(len(g.areas))
	q := 0.02 + 0.4*g.rng.Float64()
	mu := g.areas[i].B * (1 - q) * (0.1 + 0.8*g.rng.Float64())
	return op{Kind: opUpdate, Area: g.areas[i].ID, Update: &server.StatsUpdateRequest{Mu: mu, Q: q}}
}

// schedule emits one fixed-rate stream: at rate r it fires at
// (phase + k)/r for k = 0, 1, ... within dur, with a seeded phase so
// streams do not align.
func (g *gen) schedule(dur time.Duration, rate float64, next func(at time.Duration) op) []op {
	if rate <= 0 {
		return nil
	}
	var out []op
	step := float64(time.Second) / rate
	for t := g.rng.Float64() * step; t < float64(dur); t += step {
		o := next(time.Duration(t))
		o.At = time.Duration(t)
		out = append(out, o)
	}
	return out
}

// mainPlan is the open-loop request plan of the main phase.
func (g *gen) mainPlan(dur time.Duration) []op {
	w := g.w
	var streams [][]op
	switch w.name {
	case "hot_decide":
		streams = append(streams, g.schedule(dur, w.decideRate, func(time.Duration) op {
			return g.decide(g.rng.IntN(len(g.areas)))
		}))
	case "fleet_day":
		n := 0
		streams = append(streams, g.schedule(dur, w.stopRate, func(time.Duration) op {
			n++
			return g.fleetStop(n - 1)
		}))
	}
	streams = append(streams, g.schedule(dur, 1, func(time.Duration) op { return op{Kind: opScrape} }))
	return encodeBodies(merge(streams))
}

// capacityPlan is the closed-loop plan: the workload's decision-carrying
// requests, back to back, n of them at most.
func (g *gen) capacityPlan(n int) []op {
	out := make([]op, 0, n)
	for k := 0; k < n; k++ {
		switch g.w.name {
		case "hot_decide":
			out = append(out, g.decide(g.rng.IntN(len(g.areas))))
		case "fleet_day":
			out = append(out, g.fleetStop(k))
		}
	}
	return encodeBodies(out)
}

// probePlan covers the request kinds the main mix lacks.
func (g *gen) probePlan(dur time.Duration) []op {
	var streams [][]op
	if g.w.probeObserve {
		streams = append(streams, g.schedule(dur, 200, func(time.Duration) op { return g.observeBatch() }))
	}
	if g.w.probeUpdate {
		streams = append(streams, g.schedule(dur, 200, func(time.Duration) op { return g.update() }))
	}
	return encodeBodies(merge(streams))
}

// merge orders several fixed-rate streams by send time (stable, so the
// plan is a pure function of the seed).
func merge(streams [][]op) []op {
	var out []op
	for _, s := range streams {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out
}
