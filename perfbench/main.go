// Command perfbench is the repository benchmark: it boots idled from
// the checkout, drives one workload at it from this single generator
// process, checks every reply against an offline oracle, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced in-process run). The last stdout line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"idlereduce/internal/obs"
	"idlereduce/internal/server"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the gated metrics of an untraced run, as a user of idled
// sees them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"slo_ok_ratio", "ratio"},
	{"served_cr", "ratio"},
	{"rss_mb", "MB"},
}

// reported are end-to-end metrics printed with every untraced run but
// not gated: on a shared two-CPU host their run-to-run spread is wider
// than any bound a regression gate could use (see README.md).
var reported = []metricDef{
	{"decide_p50_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"decide_p99_ms", "ms"},
	{"observe_p99_ms", "ms"},
	{"update_p99_ms", "ms"},
	{"scrape_p50_ms", "ms"},
	{"error_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	wname := flag.String("workload", "", "workload: hot_decide or fleet_day")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced in-process pass and prints per-layer metrics")
	idled := flag.String("idled", "", "idled binary built from this checkout")
	work := flag.String("work", "", "working directory for area files and audit logs (emptied first)")
	flag.Parse()
	// The generator shares the CPUs with idled; a lazier collector keeps
	// its own GC cycles out of the measured latencies.
	debug.SetGCPercent(400)
	if err := run(*wname, *seed, *seconds, *trace, *idled, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(wname string, seed uint64, seconds, trace int, idled, work string) error {
	w, err := lookupWorkload(wname)
	if err != nil {
		return err
	}
	if seconds < 1 || idled == "" || work == "" || (trace != 0 && trace != 1) {
		return fmt.Errorf("need -seconds >= 1, -trace 0|1, -idled and -work")
	}
	if err := os.RemoveAll(work); err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	var res *result
	var reps []*checkReport
	if trace == 0 {
		// Against a separate daemon the generator's network I/O needs
		// little CPU; one P keeps its threads from queueing the
		// daemon's behind them on the shared CPUs.
		runtime.GOMAXPROCS(1)
	}
	if trace == 1 {
		res, reps, err = runTraced(ctx, w, seed, time.Duration(seconds)*time.Second, work)
	} else {
		res, reps, err = runDaemon(ctx, w, seed, time.Duration(seconds)*time.Second, idled, work)
	}
	if err != nil {
		return err
	}
	res.Correct = true
	for _, rep := range reps {
		printCheck(rep)
		res.Correct = res.Correct && rep.ok()
	}
	fmt.Printf("outputs_ok=%v\n", res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("output check failed (logs kept in %s)", work)
	}
	// Drop the audit logs before the kernel writes them back, so their
	// disk traffic does not land in the next run's measurement.
	return os.RemoveAll(work)
}

// phases splits the measured seconds: an unmeasured warm-up of the
// workload's own traffic (lazy set-up, connection and heap growth, and
// the host's first-touch costs land there), then the measured main,
// capacity and probe phases.
func phases(total time.Duration) (warm, main, capacity, probe time.Duration) {
	return total * 10 / 100, total * 66 / 100, total * 12 / 100, total * 12 / 100
}

// Phase numbers tag request ids (p<phase>-<op>).
const (
	phaseMain = iota
	phaseCapacity
	phaseProbe
	phaseWarm
)

// procs is the CPU budget of both the daemon and the generator.
func procs() int { return runtime.NumCPU() }

// runDaemon is the untraced end-to-end run against an idled process.
func runDaemon(ctx context.Context, w workload, seed uint64, total time.Duration, idled, work string) (*result, []*checkReport, error) {
	areas, err := w.areaStates()
	if err != nil {
		return nil, nil, err
	}
	var args []string
	if w.areas > 0 {
		path := filepath.Join(work, "areas.json")
		if err := writeAreas(path, areas); err != nil {
			return nil, nil, err
		}
		args = append(args, "-areas", path)
	}
	stderr, err := os.Create(filepath.Join(work, "idled.stderr"))
	if err != nil {
		return nil, nil, err
	}
	defer stderr.Close()

	t0 := time.Now()
	var setups []float64
	boot := func() (*daemon, error) {
		bargs := args
		if w.audit {
			path := filepath.Join(work, fmt.Sprintf("audit-%d.jsonl", len(setups)))
			// A log size the run never reaches, so the log is never rotated.
			bargs = append(append([]string{}, args...), "-audit-log", path, "-audit-max-bytes", "17179869184")
		}
		b, err := bootDaemon(ctx, idled, procs(), bargs, stderr)
		if err == nil {
			setups = append(setups, b.setup.Seconds())
		}
		return b, err
	}
	// The serving daemon's boot is the first set-up sample. The other
	// boots are spread over the gaps between phases, so the median
	// samples the shared host at several moments of the run, not one.
	gap := 0
	spareBoots := func() error {
		n := (w.boots-1)*(gap+1)/4 - (w.boots-1)*gap/4
		gap++
		for ; n > 0; n-- {
			b, err := boot()
			if err != nil {
				return err
			}
			if err := b.stop(); err != nil {
				return err
			}
		}
		return nil
	}
	d, err := boot()
	if err != nil {
		return nil, nil, err
	}
	auditPath := filepath.Join(work, "audit-0.jsonl")
	stopped := false
	defer func() {
		if !stopped {
			_ = d.stop()
		}
	}()

	warmDur, mainDur, capDur, probeDur := phases(total)
	g := newGen(w, seed, areas)
	warmOps := g.mainPlan(warmDur)
	mainOps := g.mainPlan(mainDur)
	capOps := g.capacityPlan(capacityOps(w, capDur))
	probeOps := g.probePlan(probeDur)

	c := newClient(d.base, procs(), w.sloMS)
	defer c.close()
	warmRes := c.openLoop(ctx, phaseWarm, warmOps, procs())
	if err := spareBoots(); err != nil {
		return nil, nil, err
	}
	mainRes := c.openLoop(ctx, phaseMain, mainOps, procs())
	if err := spareBoots(); err != nil {
		return nil, nil, err
	}
	capRes, capElapsed := c.closedLoop(ctx, phaseCapacity, capOps, procs(), capDur)
	listing, err := areaListing(ctx, c)
	if err != nil {
		return nil, nil, err
	}
	snap, err := metricsSnapshot(ctx, c)
	if err != nil {
		return nil, nil, err
	}
	if err := spareBoots(); err != nil {
		return nil, nil, err
	}
	probeRes := c.openLoop(ctx, phaseProbe, probeOps, procs())
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	if err := spareBoots(); err != nil {
		return nil, nil, err
	}
	tTraffic := time.Now()
	stopped = true
	if err := d.stop(); err != nil {
		return nil, nil, err
	}

	in := checkInput{boot: areas, listing: listing}
	if w.audit {
		in.audit = auditPath
	}
	all := append(append(append(append([]opResult{}, warmRes...), mainRes...), capRes...), probeRes...)
	collect(&in, all)
	tStop := time.Now()
	rep, err := newOracle().check(in)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("timing: boots and traffic %.1f s, drain %.1f s, output check %.1f s\n",
		tTraffic.Sub(t0).Seconds(), tStop.Sub(tTraffic).Seconds(), time.Since(tStop).Seconds())

	res := &result{Metrics: map[string]metricValue{}}
	att, failed := tally(all)
	res.Attempted, res.Failed = att, failed
	m := e2eMetrics(mainRes, capRes, probeRes, capElapsed)
	m["setup_s"] = median(setups)
	m["served_cr"] = rep.servedCR
	m["rss_mb"] = rss
	m["error_ratio"] = float64(failed) / float64(max(att, 1))
	if err := fill(res, endToEnd, m); err != nil {
		return nil, nil, err
	}
	printRun(w, m, mainRes, probeRes, snap, att, failed, setups)
	return res, []*checkReport{rep}, nil
}

// capacityOps sizes the closed-loop plan well above what the phase can
// use, so the plan never runs dry.
func capacityOps(w workload, dur time.Duration) int {
	perSec := 20000
	if w.stopRate > 0 {
		perSec = 500 // 16 decisions each
	}
	return int(dur.Seconds()*float64(perSec)) + 100
}

func writeAreas(path string, areas []server.AreaState) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := server.WriteAreaStates(f, areas); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// areaListing reads GET /v1/areas.
func areaListing(ctx context.Context, c *client) ([]server.AreaInfo, error) {
	code, body, err := c.call(ctx, "GET", "/v1/areas", "", nil)
	if err != nil || code != 200 {
		return nil, fmt.Errorf("GET /v1/areas: status %d: %v", code, err)
	}
	var areas server.AreasResponse
	err = json.Unmarshal(body, &areas)
	return areas.Areas, err
}

// metricsSnapshot reads GET /metrics as JSON.
func metricsSnapshot(ctx context.Context, c *client) (obs.Snapshot, error) {
	code, body, err := c.call(ctx, "GET", "/metrics?format=json", "", nil)
	if err != nil || code != 200 {
		return obs.Snapshot{}, fmt.Errorf("GET /metrics: status %d: %v", code, err)
	}
	var snap obs.Snapshot
	err = json.Unmarshal(body, &snap)
	return snap, err
}

// collect gathers the outputs of executed ops for the check.
func collect(in *checkInput, results []opResult) {
	for _, r := range results {
		in.decisions = append(in.decisions, r.decisions...)
		in.settles = append(in.settles, r.settles...)
		in.observes = append(in.observes, r.observes...)
		if r.update != nil {
			in.updates = append(in.updates, r.update)
		}
	}
}

// tally counts requests attempted and failed (scrapes included; the
// deliberate orphan settles are expected and count as neither).
func tally(results []opResult) (attempted, failed int) {
	for _, r := range results {
		if !r.done {
			continue
		}
		attempted += r.requests
		if r.kind == opScrape {
			attempted++
		}
		failed += r.failed
	}
	return attempted, failed
}

// latencies extracts one latency series from executed ops, in plan
// order (for an open-loop phase, scheduled send order).
func latencies(results []opResult, pick func(r *opResult) float64) []float64 {
	var out []float64
	for i := range results {
		if !results[i].done {
			continue
		}
		if v := pick(&results[i]); v > 0 {
			out = append(out, v)
		}
	}
	return out
}

// e2eMetrics computes the latency, throughput and SLO metrics. Observe
// and update tails come from the main phase when its mix has them, else
// from the probe phase.
func e2eMetrics(mainRes, capRes, probeRes []opResult, capElapsed time.Duration) map[string]float64 {
	m := map[string]float64{}
	dec := windowTail(latencies(mainRes, func(r *opResult) float64 { return r.decideMS }))
	m["decide_p50_ms"], m["decide_p99_ms"] = dec.p50, dec.tail
	pickObs := func(r *opResult) float64 { return r.observeMS }
	pickUpd := func(r *opResult) float64 { return r.updateMS }
	o := latencies(mainRes, pickObs)
	if len(o) == 0 {
		o = latencies(probeRes, pickObs)
	}
	m["observe_p99_ms"] = windowTail(o).tail
	u := latencies(mainRes, pickUpd)
	if len(u) == 0 {
		u = latencies(probeRes, pickUpd)
	}
	m["update_p99_ms"] = windowTail(u).tail
	m["capacity_rps"] = capacity(capRes, capElapsed)
	var sent, ok int
	for _, r := range mainRes {
		sent += r.requests
		ok += r.sloOK
	}
	m["slo_ok_ratio"] = float64(ok) / float64(max(sent, 1))
	m["scrape_p50_ms"] = tail(latencies(mainRes, func(r *opResult) float64 { return r.scrapeMS })).p50
	return m
}

// capacity is the closed-loop decision throughput: the phase is cut
// into five equal slices by completion time and the median slice rate
// is reported, so a transient stall in one slice does not decide it.
func capacity(results []opResult, elapsed time.Duration) float64 {
	const slices = 5
	var counts [slices]float64
	for _, r := range results {
		if r.done {
			k := min(slices-1, int(slices*r.fin/elapsed))
			counts[k] += float64(len(r.decisions))
		}
	}
	rates := make([]float64, slices)
	for k, c := range counts {
		rates[k] = c * slices / elapsed.Seconds()
	}
	return median(rates)
}

// fill copies the computed values of defs into the result, refusing a
// missing one so the printed set always matches BENCHMARK.json.
func fill(res *result, defs []metricDef, m map[string]float64) error {
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured (%v)", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return nil
}

// summary is a latency series' median and tail.
type summary struct {
	p50, tail, q float64
	n, windows   int
}

// windowTail is tail with the tail steadied: the series is cut into
// consecutive windows of at least 100 samples (at most thirty windows)
// and the reported tail is the median of the windows' tails, so one
// stall in one window does not decide the run. Under 200 samples it is
// the pooled tail.
func windowTail(xs []float64) summary {
	out := tail(xs)
	w := min(30, len(xs)/100)
	if w < 2 {
		return out
	}
	var tails []float64
	for k := 0; k < w; k++ {
		win := tail(xs[k*len(xs)/w : (k+1)*len(xs)/w])
		tails = append(tails, win.tail)
		out.q = win.q
	}
	out.tail, out.windows = median(tails), w
	return out
}

// tail returns the median and the highest percentile, at most the
// 99th, that has at least ten samples beyond it.
func tail(xs []float64) summary {
	if len(xs) == 0 {
		return summary{p50: math.NaN(), tail: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := math.Min(0.99, 1-10/float64(n))
	if q < 0.5 {
		q = 0.5
	}
	return summary{p50: rank(s, 0.5), tail: rank(s, q), q: q, n: n, windows: 1}
}

// rank is the nearest-rank quantile of sorted s.
func rank(s []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return tail(xs).p50 }

// printCheck reports the output check.
func printCheck(r *checkReport) {
	fmt.Printf("check: %d decisions (%d recomputed offline, %d matched to audit, %d unverified), %d mismatched\n",
		r.decisions, r.recomputed, r.auditMatched, r.unverified, r.mismatches)
	if r.auditOn {
		fmt.Printf("check: %s", r.audit.String())
	}
	fmt.Printf("check: served_cr %.6f, oracle cr %.6f, equal=%v\n", r.servedCR, r.oracleCR,
		math.Float64bits(r.servedCR) == math.Float64bits(r.oracleCR))
	fmt.Printf("check: %d observations replayed, %d mismatched; %d updates, %d mismatched\n",
		r.observes, r.observeMismatch, r.updates, r.updateMismatch)
	fmt.Printf("ledger.paper_cost_mismatch = %d (of %d settles; known defect, not gated)\n", r.paperMismatch, r.settles)
	fmt.Printf("obs.audit_unverified = %d replies (audit record dropped; not gated)\n", r.unverified)
	for _, d := range r.details {
		fmt.Printf("check: %s\n", d)
	}
}

// printRun prints the end-to-end report of an untraced run.
func printRun(w workload, m map[string]float64, mainRes, probeRes []opResult, snap obs.Snapshot, att, failed int, setups []float64) {
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	for _, k := range []struct {
		name string
		pick func(r *opResult) float64
	}{
		{"decide", func(r *opResult) float64 { return r.decideMS }},
		{"observe", func(r *opResult) float64 { return r.observeMS }},
		{"update", func(r *opResult) float64 { return r.updateMS }},
	} {
		phase, s := "main", windowTail(latencies(mainRes, k.pick))
		if s.n == 0 {
			phase, s = "probe", windowTail(latencies(probeRes, k.pick))
		}
		fmt.Printf("%s latency (%s phase): p50 %.4f ms, p%.1f %.4f ms (median of %d windows) over %d requests\n",
			k.name, phase, s.p50, s.q*100, s.tail, s.windows, s.n)
	}
	fmt.Printf("setup: %d boots, %v s\n", len(setups), setups)
	orphans := 0
	for _, r := range mainRes {
		orphans += r.orphans
	}
	fmt.Printf("%d failed of %d attempted; %d deliberate orphan settles refused as expected in the main phase\n", failed, att, orphans)
	fmt.Printf("loadgen.lag_p99_ms = %.4f\n", tail(latencies(mainRes, func(r *opResult) float64 { return r.lagMS })).tail)
	dropped, _ := snap.GaugeValue("audit_dropped_records")
	fmt.Printf("obs.audit_dropped = %.0f\n", dropped)
	for _, d := range endToEnd {
		fmt.Printf("%s = %.6g %s\n", d.name, m[d.name], d.unit)
	}
	for _, d := range reported {
		fmt.Printf("%s = %.6g %s (reported, not gated)\n", d.name, m[d.name], d.unit)
	}
}
