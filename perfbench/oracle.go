package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"idlereduce/internal/adaptive"
	"idlereduce/internal/multislope"
	"idlereduce/internal/parallel"
	"idlereduce/internal/policy"
	"idlereduce/internal/predict"
	"idlereduce/internal/server"
	"idlereduce/internal/skirental"
)

// streamID is the decision's RNG stream: FNV-1a over vehicle id, a zero
// byte, area id, a zero byte and the little-endian bits of b. Written
// here from the wire contract, not borrowed from the server.
func streamID(vehicle, area string, b float64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	add := func(p []byte) {
		for _, c := range p {
			h ^= uint64(c)
			h *= prime
		}
	}
	add([]byte(vehicle))
	add([]byte{0})
	add([]byte(area))
	add([]byte{0})
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(b))
	add(buf[:])
	return h
}

type prepKey struct {
	engine   string
	b, mu, q float64
}

// oracle recomputes decisions offline through the policy registry.
type oracle struct {
	preps map[prepKey]policy.Strategy
	probs map[float64]*multislope.Policy
}

func newOracle() *oracle {
	return &oracle{preps: map[prepKey]policy.Strategy{}, probs: map[float64]*multislope.Policy{}}
}

func (o *oracle) prepare(eng policy.Engine, s policy.Stats) (policy.Strategy, error) {
	k := prepKey{eng.Name(), s.B, s.Mu, s.Q}
	if p, ok := o.preps[k]; ok {
		return p, nil
	}
	p, err := eng.Prepare(s)
	if err != nil {
		return nil, err
	}
	o.preps[k] = p
	return p, nil
}

// expect renders the reply idled must send for req on an area in state
// st: the same bytes, float bit for float bit. decisionID is copied from
// the served reply, since ids are minted by the daemon.
func (o *oracle) expect(req server.DecideRequest, st server.AreaState, decisionID string) ([]byte, error) {
	eng, err := policy.Lookup(req.Policy)
	if err != nil {
		return nil, err
	}
	b := req.B
	cached := b == 0 || b == st.B
	if cached {
		b = st.B
	}
	prep, err := o.prepare(eng, policy.Stats{B: b, Mu: st.Mu, Q: st.Q})
	if err != nil {
		return nil, err
	}
	rng := parallel.RNG(req.Seed, streamID(req.VehicleID, st.ID, b))
	var dec policy.Decision
	if p := req.Prediction; p != nil {
		pr := predict.Prediction{StopSec: p.PredictedStopSec, Confidence: 1}
		if p.Confidence != nil {
			pr.Confidence = *p.Confidence
		}
		if p.M1 != nil && p.M2 != nil {
			pr.M1, pr.M2, pr.HasMoments = *p.M1, *p.M2, true
		}
		adv, ok := prep.(policy.Advised)
		if !ok {
			return nil, fmt.Errorf("engine %s takes no prediction", eng.Name())
		}
		dec = adv.DecideAdvised(rng, pr)
	} else {
		dec = prep.Decide(rng)
	}
	resp := server.DecideResponse{
		VehicleID: req.VehicleID, Area: st.ID, B: b,
		Choice: dec.Choice, ThresholdSec: dec.ThresholdSec,
		WorstCaseCost: dec.WorstCaseCost, WorstCaseCR: dec.WorstCaseCR,
		Seed: req.Seed, Cached: cached, DecisionID: decisionID,
	}
	if eng.Name() != policy.DefaultEngine {
		resp.Policy = policy.Spec(eng)
		resp.Explain = prep.Explain()
		for _, a := range dec.Schedule {
			resp.Schedule = append(resp.Schedule, server.ScheduleAction{State: a.State, AtSec: a.AtSec})
		}
	}
	return json.Marshal(resp)
}

// paperCost is the paper's cost of a served decision on stop y: eq. 3
// against eq. 2 for single-threshold engines, the multislope segment
// cost against the multislope offline cost for multislope3.
func (o *oracle) paperCost(resp server.DecideResponse, y float64) (online, offline float64) {
	if !strings.HasPrefix(resp.Policy, policy.MultislopeEngine+"@") {
		return skirental.OnlineCost(resp.ThresholdSec, y, resp.B), skirental.OfflineCost(y, resp.B)
	}
	pl, ok := o.probs[resp.B]
	if !ok {
		prob, err := multislope.AutomotiveThreeState(resp.B)
		if err != nil {
			return math.NaN(), math.NaN()
		}
		pl = multislope.NewDeterministic(prob)
		o.probs[resp.B] = pl
	}
	xs := make([]float64, len(resp.Schedule))
	for i, a := range resp.Schedule {
		xs[i] = a.AtSec
	}
	return pl.CostForStop(xs, y), pl.Problem().OfflineCost(y)
}

// checkInput is everything one run served, plus the state the check
// compares it with.
type checkInput struct {
	decisions []*decisionRec
	settles   []settleRec
	observes  []observeRec
	updates   []*updateRec
	boot      []server.AreaState
	// listing is GET /v1/areas taken after the last decide.
	listing []server.AreaInfo
	// audit is the audit log ("" when audit is off).
	audit string
}

// checkReport is the output check's verdict and counts.
type checkReport struct {
	decisions, recomputed, auditMatched, unverified int
	mismatches                                      int
	details                                         []string
	auditOn                                         bool
	audit                                           server.AuditVerifyReport
	servedCR, oracleCR                              float64
	settles, paperMismatch                          int
	observes, observeMismatch                       int
	updates, updateMismatch                         int
}

func (r *checkReport) fail(format string, args ...any) {
	r.mismatches++
	if len(r.details) < 5 {
		r.details = append(r.details, fmt.Sprintf(format, args...))
	}
}

// ok reports whether every gate of the output check passed.
func (r *checkReport) ok() bool {
	return r.mismatches == 0 && r.observeMismatch == 0 && r.updateMismatch == 0 &&
		(!r.auditOn || r.audit.OK()) && math.Float64bits(r.servedCR) == math.Float64bits(r.oracleCR) &&
		r.decisions > 0
}

// auditKey joins a reply to its audit record.
func auditKey(reqID, vehicle string) string { return reqID + "\x00" + vehicle }

// readAudit loads the decide records of the log and replays the whole
// log through server.VerifyAudit.
func readAudit(path string) (map[string]server.AuditRecord, server.AuditVerifyReport, error) {
	all, err := os.ReadFile(path)
	if err != nil {
		return nil, server.AuditVerifyReport{}, err
	}
	rep, err := server.VerifyAudit(bytes.NewReader(all))
	if err != nil {
		return nil, rep, err
	}
	recs := map[string]server.AuditRecord{}
	sc := bufio.NewScanner(bytes.NewReader(all))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"kind":`)) {
			continue
		}
		var rec server.AuditRecord
		if json.Unmarshal(line, &rec) == nil {
			recs[auditKey(rec.RequestID, rec.VehicleID)] = rec
		}
	}
	return recs, rep, sc.Err()
}

// check verifies a run's outputs. Decisions on areas still at stats
// version 1 are recomputed offline; decisions on re-tuned or updated
// areas must match their audit record and re-derive from its stats;
// the audit log must replay clean; served_cr must equal the CR of the
// oracle's thresholds on the same stops; observations must replay
// through an independent tracker; updates must describe the strategy
// their stats select.
func (o *oracle) check(in checkInput) (*checkReport, error) {
	rep := &checkReport{auditOn: in.audit != ""}
	boot := map[string]server.AreaState{}
	for _, a := range in.boot {
		a.ID = strings.ToLower(a.ID)
		boot[a.ID] = a
	}
	version := map[string]server.AreaInfo{}
	for _, a := range in.listing {
		version[a.ID] = a
	}
	var recs map[string]server.AuditRecord
	if rep.auditOn {
		var err error
		if recs, rep.audit, err = readAudit(in.audit); err != nil {
			return nil, fmt.Errorf("read audit log: %w", err)
		}
	}

	sort.Slice(in.decisions, func(i, j int) bool {
		a, b := in.decisions[i], in.decisions[j]
		if a.phase != b.phase {
			return a.phase < b.phase
		}
		if a.op != b.op {
			return a.op < b.op
		}
		return a.item < b.item
	})
	var servedOn, servedOff, oracleOn, oracleOff float64
	for _, d := range in.decisions {
		rep.decisions++
		area := strings.ToLower(d.req.Area)
		st, ok := boot[area]
		if !ok {
			rep.fail("%s: unknown area %q", d.reqID, area)
			continue
		}
		if d.req.Ledger != (d.resp.DecisionID != "") {
			rep.fail("%s/%s: ledger opt-in %v but decision id %q", d.reqID, d.req.VehicleID, d.req.Ledger, d.resp.DecisionID)
		}
		var want []byte
		var err error
		if info := version[area]; info.Version == 1 {
			want, err = o.expect(d.req, st, d.resp.DecisionID)
			rep.recomputed++
		} else if rec, ok := recs[auditKey(d.reqID, d.req.VehicleID)]; ok {
			err = auditAgrees(rec, d)
			if err == nil {
				st.Mu, st.Q = rec.Mu, rec.Q
				want, err = o.expect(d.req, st, d.resp.DecisionID)
			}
			rep.auditMatched++
		} else {
			// Re-tuned area whose audit record the lossy writer dropped
			// (or audit is off): counted, not gated.
			rep.unverified++
			want = d.raw
		}
		if err != nil {
			rep.fail("%s/%s: %v", d.reqID, d.req.VehicleID, err)
			continue
		}
		if !bytes.Equal(want, d.raw) {
			rep.fail("%s/%s: served %s, oracle %s", d.reqID, d.req.VehicleID, d.raw, want)
			continue
		}
		var exp server.DecideResponse
		if err := json.Unmarshal(want, &exp); err != nil {
			return nil, err
		}
		on, off := o.paperCost(d.resp, d.stop)
		servedOn, servedOff = servedOn+on, servedOff+off
		on, off = o.paperCost(exp, d.stop)
		oracleOn, oracleOff = oracleOn+on, oracleOff+off
	}
	rep.servedCR, rep.oracleCR = servedOn/servedOff, oracleOn/oracleOff

	for _, s := range in.settles {
		rep.settles++
		on, off := o.paperCost(s.dec.resp, s.dec.stop)
		if math.Float64bits(on) != math.Float64bits(s.online) || math.Float64bits(off) != math.Float64bits(s.opt) {
			rep.paperMismatch++
		}
	}
	o.checkObserves(in.observes, boot, rep)
	o.checkUpdates(in.updates, rep)
	return rep, nil
}

// auditAgrees checks a served decision against its audit record.
func auditAgrees(rec server.AuditRecord, d *decisionRec) error {
	if rec.Area != d.resp.Area || rec.Seed != d.req.Seed || rec.B != d.resp.B ||
		rec.Choice != d.resp.Choice || math.Float64bits(rec.ThresholdSec) != math.Float64bits(d.resp.ThresholdSec) ||
		rec.DecisionID != d.resp.DecisionID || len(rec.Schedule) != len(d.resp.Schedule) {
		return fmt.Errorf("reply %s disagrees with its audit record %+v", d.raw, rec)
	}
	for i, a := range rec.Schedule {
		if a != d.resp.Schedule[i] {
			return fmt.Errorf("reply schedule %v disagrees with audit %v", d.resp.Schedule, rec.Schedule)
		}
	}
	return nil
}

// checkObserves replays each area's accepted observations, in the
// order of their stream sequence numbers, through a fresh tracker with
// the daemon's default retune settings.
func (o *oracle) checkObserves(obs []observeRec, boot map[string]server.AreaState, rep *checkReport) {
	byArea := map[string][]observeRec{}
	for _, ob := range obs {
		byArea[ob.resp.Area] = append(byArea[ob.resp.Area], ob)
	}
	areas := make([]string, 0, len(byArea))
	for a := range byArea {
		areas = append(areas, a)
	}
	sort.Strings(areas)
	for _, area := range areas {
		list := byArea[area]
		sort.Slice(list, func(i, j int) bool { return list[i].resp.Seq < list[j].resp.Seq })
		tr, err := adaptive.NewTracker(adaptive.StreamConfig{B: boot[area].B, Forgetting: 0.98, MinObservations: 50})
		if err != nil {
			rep.observeMismatch++
			continue
		}
		for k, ob := range list {
			rep.observes++
			up, err := tr.Observe(ob.req.StopSec)
			r := ob.resp
			if err != nil || r.Seq != int64(k+1) || up.Seen != r.Seq || up.Warm != r.Warm || up.Alarm != r.Alarm ||
				math.Float64bits(up.Stats.MuBMinus) != math.Float64bits(r.Mu) ||
				math.Float64bits(up.Stats.QBPlus) != math.Float64bits(r.Q) ||
				r.Retuned != (up.Alarm && up.Warm) {
				rep.observeMismatch++
				if len(rep.details) < 5 {
					rep.details = append(rep.details, fmt.Sprintf("observe %s#%d: served %+v, replay %+v", area, r.Seq, r, up))
				}
				break
			}
		}
	}
}

// checkUpdates compares each stats-update reply with the default
// engine's strategy for the stats sent.
func (o *oracle) checkUpdates(ups []*updateRec, rep *checkReport) {
	eng, _ := policy.Lookup("")
	for _, u := range ups {
		rep.updates++
		st := policy.Stats{B: u.info.B, Mu: u.req.Mu, Q: u.req.Q}
		prep, err := o.prepare(eng, st)
		if err != nil {
			rep.updateMismatch++
			continue
		}
		d := prep.Describe()
		i := u.info
		if i.ID != strings.ToLower(u.area) || i.Mu != u.req.Mu || i.Q != u.req.Q || i.Choice != d.Choice ||
			math.Float64bits(i.ThresholdSec) != math.Float64bits(d.ThresholdSec) ||
			math.Float64bits(i.WorstCaseCost) != math.Float64bits(d.WorstCaseCost) ||
			math.Float64bits(i.WorstCaseCR) != math.Float64bits(d.WorstCaseCR) || i.Version < 2 {
			rep.updateMismatch++
			if len(rep.details) < 5 {
				rep.details = append(rep.details, fmt.Sprintf("update %s: served %+v, oracle %+v", u.area, i, d))
			}
		}
	}
}
