package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"idlereduce/internal/server"
)

// mainPlan builds a short main plan of a workload.
func mainPlan(t *testing.T, w workload, seed uint64) []op {
	t.Helper()
	areas, err := w.areaStates()
	if err != nil {
		t.Fatal(err)
	}
	return newGen(w, seed, areas).mainPlan(2 * time.Second)
}

func TestPlanIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, _ := json.Marshal(mainPlan(t, w, 7))
			b, _ := json.Marshal(mainPlan(t, w, 7))
			c, _ := json.Marshal(mainPlan(t, w, 8))
			if !bytes.Equal(a, b) {
				t.Fatal("same seed gave different plans")
			}
			if bytes.Equal(a, c) {
				t.Fatal("different seeds gave the same plan")
			}
			for i, o := range mainPlan(t, w, 7) {
				if o.Kind != opScrape && o.body == nil {
					t.Fatalf("op %d (%s) has no encoded body", i, o.Kind)
				}
			}
		})
	}
}

// servedDecision builds a decision on a paper area as idled would serve
// it, by way of the oracle itself.
func servedDecision(t *testing.T, policy string) (*decisionRec, []server.AreaState) {
	t.Helper()
	areas, err := server.DefaultAreaStates(breakEven)
	if err != nil {
		t.Fatal(err)
	}
	req := server.DecideRequest{VehicleID: "v1", Area: areas[1].ID, Seed: 99, Policy: policy}
	raw, err := newOracle().expect(req, areas[1], "")
	if err != nil {
		t.Fatal(err)
	}
	d := &decisionRec{req: req, raw: raw, reqID: "p0-0", stop: 17}
	if err := json.Unmarshal(raw, &d.resp); err != nil {
		t.Fatal(err)
	}
	return d, areas
}

func checkOne(t *testing.T, d *decisionRec, areas []server.AreaState) *checkReport {
	t.Helper()
	var listing []server.AreaInfo
	for _, a := range areas {
		listing = append(listing, server.AreaInfo{ID: a.ID, B: a.B, Mu: a.Mu, Q: a.Q, Version: 1})
	}
	rep, err := newOracle().check(checkInput{decisions: []*decisionRec{d}, boot: areas, listing: listing})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// perturb re-encodes the decision after f changes it.
func perturb(t *testing.T, d *decisionRec, f func(*server.DecideResponse)) *decisionRec {
	t.Helper()
	out := *d
	f(&out.resp)
	raw, err := json.Marshal(out.resp)
	if err != nil {
		t.Fatal(err)
	}
	out.raw = raw
	return &out
}

func TestOracleAcceptsTheServedReplyAndRejectsPerturbedOnes(t *testing.T) {
	for _, engine := range []string{"", "multislope3"} {
		d, areas := servedDecision(t, engine)
		if rep := checkOne(t, d, areas); !rep.ok() || rep.recomputed != 1 {
			t.Fatalf("engine %q: exact reply rejected: %+v", engine, rep)
		}
		flipped := perturb(t, d, func(r *server.DecideResponse) {
			r.ThresholdSec = math.Float64frombits(math.Float64bits(r.ThresholdSec) ^ 1)
		})
		if rep := checkOne(t, flipped, areas); rep.ok() || rep.mismatches != 1 {
			t.Fatalf("engine %q: reply with one threshold bit flipped accepted: %+v", engine, rep)
		}
		wrong := perturb(t, d, func(r *server.DecideResponse) { r.Choice = "TOI" })
		if rep := checkOne(t, wrong, areas); rep.ok() || rep.mismatches != 1 {
			t.Fatalf("engine %q: reply with a wrong choice accepted: %+v", engine, rep)
		}
	}
}

func TestStreamIDMatchesTheAuditedStream(t *testing.T) {
	// The audit log records the daemon's stream; VerifyAudit re-derives
	// it, so a record carrying streamID must verify.
	d, areas := servedDecision(t, "")
	rec := server.AuditRecord{VehicleID: d.req.VehicleID, Area: areas[1].ID, StatsVersion: 1, B: d.resp.B,
		Mu: areas[1].Mu, Q: areas[1].Q, Seed: d.req.Seed, Stream: streamID(d.req.VehicleID, areas[1].ID, d.resp.B),
		Choice: d.resp.Choice, ThresholdSec: d.resp.ThresholdSec, Policy: "constrained", PolicyVersion: 1}
	line, _ := json.Marshal(rec)
	rep, err := server.VerifyAudit(bytes.NewReader(append(line, '\n')))
	if err != nil || !rep.OK() || rep.Matched != 1 {
		t.Fatalf("audit record built from streamID did not verify: %v %+v", err, rep)
	}
}

func TestWindowTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 20; i++ {
		xs[i] = 500 // a stall filling the first window's tail
	}
	s := windowTail(xs)
	if s.windows != 10 || s.tail != 1 || s.p50 != 1 {
		t.Fatalf("windowTail = %+v, want 10 windows with tail 1", s)
	}
	if p := tail(xs); p.tail != 500 {
		t.Fatalf("pooled tail = %v, want the stall", p.tail)
	}
	if p := tail(xs[:100]); p.q != 0.9 {
		t.Fatalf("tail of 100 samples uses q = %v, want 0.9 (ten samples beyond)", p.q)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkFileNamesWhatPerfbenchPrints(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), perfbench %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, perfbench prints %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s %s, perfbench prints %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, perfbench prints %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: %s %s, perfbench prints %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !strings.Contains(m.Name, ".") {
			t.Errorf("per_layer %s does not name its module", m.Name)
		}
	}
}

func TestFillRefusesAMissingMetric(t *testing.T) {
	res := &result{Metrics: map[string]metricValue{}}
	m := map[string]float64{}
	for _, d := range endToEnd[1:] {
		m[d.name] = 1
	}
	if err := fill(res, endToEnd, m); err == nil {
		t.Fatalf("fill accepted a result without %s", endToEnd[0].name)
	}
}
