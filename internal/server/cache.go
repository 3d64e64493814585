package server

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"idlereduce/internal/obs"
	"idlereduce/internal/policy"
	"idlereduce/internal/skirental"
)

// AreaState is the serving configuration of one statistics area: the
// break-even interval B and the constrained pair (mu_B-, q_B+) every
// policy engine derives its strategy from. It is what the -areas
// config file holds and what a stats update replaces.
type AreaState struct {
	// ID is the lookup key (case-insensitive, stored lowercase).
	ID string `json:"id"`
	// B is the area's default break-even interval in seconds.
	B float64 `json:"b"`
	// Mu is mu_B- (partial expectation of stops <= B, seconds).
	Mu float64 `json:"mu"`
	// Q is q_B+ (probability of a stop longer than B).
	Q float64 `json:"q"`
}

// Stats returns the skirental view of the pair.
func (a AreaState) Stats() skirental.Stats {
	return skirental.Stats{MuBMinus: a.Mu, QBPlus: a.Q}
}

// PolicyStats returns the engine view of the area at break-even b
// (b <= 0 means the area default).
func (a AreaState) PolicyStats(b float64) policy.Stats {
	if b <= 0 {
		b = a.B
	}
	return policy.Stats{B: b, Mu: a.Mu, Q: a.Q}
}

// Validate checks the state is servable: non-empty ID and a feasible
// (B, mu, q) triple.
func (a AreaState) Validate() error {
	if strings.TrimSpace(a.ID) == "" {
		return fmt.Errorf("server: area id empty")
	}
	if err := a.Stats().Validate(a.B); err != nil {
		return fmt.Errorf("server: area %s: %w", a.ID, err)
	}
	return nil
}

// areaRec is the per-area serving record shared by every engine's
// cache entries: the current state, its statistics version, and the
// pre-formatted attribution metric names (decide_area_ms{area=...} /
// decide_area_total{...}) built once so the decide hot path never
// formats labels. Records are immutable; a stats update builds a fresh
// one.
type areaRec struct {
	state     AreaState
	version   uint64
	latMetric string
	cntMetric string
}

// newAreaRec validates and normalizes one area state.
func newAreaRec(state AreaState, version uint64) (*areaRec, error) {
	state.ID = areaKey(state.ID)
	if err := state.Validate(); err != nil {
		return nil, err
	}
	return &areaRec{
		state:     state,
		version:   version,
		latMetric: obs.L("decide_area_ms", "area", state.ID),
		cntMetric: obs.L("decide_area_total", "area", state.ID),
	}, nil
}

// areaKey normalizes an area ID to its lookup key (case-insensitive,
// surrounding space ignored).
func areaKey(id string) string {
	return strings.ToLower(strings.TrimSpace(id))
}

// paramsHash fingerprints the engine parameters of a prepared
// strategy: the effective break-even interval plus the resolved tuning
// map, hashed in sorted key order. Floats are hashed by bit pattern,
// so semantically different values (including negative zero vs zero)
// never alias; a nil map (the default parameterization) hashes
// differently from any explicit map, which at worst caches a default
// strategy twice, never serves the wrong one.
func paramsHash(b float64, params map[string]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(b))
	h.Write(buf[:])
	if len(params) > 0 {
		names := make([]string, 0, len(params))
		for n := range params {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			h.Write([]byte(n))
			h.Write([]byte{0})
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(params[n]))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// areaHash places an area on its shard: FNV-1a over the normalized ID.
// The placement is a pure function of the ID, so a snapshot taken with
// one shard count restores correctly under any other.
func areaHash(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// strategy is one immutable cache entry: the area record plus the
// engine-prepared policy. Entries are never mutated after
// construction; writes build fresh entries and publish them in a
// fresh area view.
type strategy struct {
	rec  *areaRec
	eng  policy.Engine
	prep policy.Strategy
	// hash is the paramsHash of the resolved engine parameters this
	// entry was prepared with; with the engine name it identifies the
	// entry within its area view. Distinct engines — and distinct
	// parameterizations of one engine — never collide.
	hash uint64
}

// Info renders the entry as the wire AreaInfo. The Policy field is set
// only for non-default engines, so the default listing's bytes are
// unchanged from the pre-engine server.
func (s *strategy) Info() AreaInfo {
	d := s.prep.Describe()
	info := AreaInfo{
		ID:            s.rec.state.ID,
		B:             s.rec.state.B,
		Mu:            s.rec.state.Mu,
		Q:             s.rec.state.Q,
		Choice:        d.Choice,
		ThresholdSec:  d.ThresholdSec,
		WorstCaseCost: d.WorstCaseCost,
		WorstCaseCR:   d.WorstCaseCR,
		Version:       s.rec.version,
	}
	if s.eng.Name() != policy.DefaultEngine {
		info.Policy = s.eng.Name()
	}
	return info
}

// areaView is one immutable generation of ONE area: its record plus
// the strategies prepared from it. entries starts with the eager
// engines' entries, the registry default first, followed by any lazy
// fills. Every write to the area publishes a fresh view, so a reader
// holding a view keeps a consistent picture of that area.
type areaView struct {
	rec     *areaRec
	entries []*strategy
}

// find returns the view's entry for (engine, params hash), or nil.
func (v *areaView) find(engine string, hash uint64) *strategy {
	for _, st := range v.entries {
		if st.hash == hash && st.eng.Name() == engine {
			return st
		}
	}
	return nil
}

// shard stripes the cache's writer mutexes and its hit/miss counters
// over the area keyspace. views is built at boot and never changes
// afterwards (the serving area set is fixed), so readers index it
// without a lock; each area's current view sits behind its own atomic
// pointer.
type shard struct {
	mu    sync.Mutex // serializes writes to this shard's areas
	views map[string]*atomic.Pointer[areaView]
	// hitMetric / missMetric are the pre-formatted per-shard cache
	// counters (decide_shard_hits_total{shard=N} and the miss twin), so
	// per-shard hit-rate attribution costs the hot path no formatting.
	hitMetric  string
	missMetric string
}

// DefaultShards is the shard count used when Config.Shards is unset:
// enough writer mutexes that concurrent writes to different areas
// rarely wait on one another.
const DefaultShards = 16

// Cache is the read-mostly strategy cache. Each area owns an atomic
// pointer to an immutable areaView; a read is one pointer load plus a
// scan of the area's few entries — no locks on the decide path. A
// write (stats update, re-tune, restore or lazy engine fill) prepares
// its strategies first, then publishes one fresh view for each area it
// touches, copying only that area's entries: its cost does not grow
// with the number of areas, and every other area keeps its view
// pointer untouched. Areas are placed on shards by hash; a shard only
// stripes the writer mutexes and splits the hit/miss counters.
//
// Entries for the eager engines (the registry default plus the
// daemon's serving default) are prepared at boot and on every stats
// update, so a misconfigured server never starts and default-path
// requests never pay a prepare. Other engines fill in lazily on first
// use and are invalidated by stats updates.
type Cache struct {
	shards []*shard
	mask   uint64
	eager  []policy.Engine
	// order holds every area's view pointer sorted by area ID, for the
	// listings.
	order []*atomic.Pointer[areaView]
}

// NewShardedCache builds the cache from the boot-time area states,
// preparing every eager engine for every area. Duplicate IDs (after
// lowercasing) are rejected. The registry default engine is always
// eager. shards is rounded up to a power of two (0 = DefaultShards);
// the shard count is invisible on the wire — decisions are
// byte-identical for every value.
func NewShardedCache(areas []AreaState, eager []policy.Engine, shards int) (*Cache, error) {
	recs := make([]*areaRec, 0, len(areas))
	seen := make(map[string]bool, len(areas))
	for _, a := range areas {
		rec, err := newAreaRec(a, 1)
		if err != nil {
			return nil, err
		}
		if seen[rec.state.ID] {
			return nil, fmt.Errorf("server: duplicate area id %q", rec.state.ID)
		}
		seen[rec.state.ID] = true
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("server: no areas configured")
	}
	n := shardCount(shards)
	def, _ := policy.Get(policy.DefaultEngine)
	engines := []policy.Engine{def}
	for _, e := range eager {
		if e != nil && e.Name() != policy.DefaultEngine {
			engines = append(engines, e)
		}
	}
	c := &Cache{
		shards: make([]*shard, n),
		mask:   uint64(n - 1),
		eager:  engines,
		order:  make([]*atomic.Pointer[areaView], 0, len(recs)),
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			views:      make(map[string]*atomic.Pointer[areaView], len(recs)/n+1),
			hitMetric:  obs.L("decide_shard_hits_total", "shard", strconv.Itoa(i)),
			missMetric: obs.L("decide_shard_misses_total", "shard", strconv.Itoa(i)),
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].state.ID < recs[j].state.ID })
	for _, rec := range recs {
		entries, err := c.prepareEager(rec)
		if err != nil {
			return nil, err
		}
		p := new(atomic.Pointer[areaView])
		p.Store(&areaView{rec: rec, entries: entries})
		c.shardFor(rec.state.ID).views[rec.state.ID] = p
		c.order = append(c.order, p)
	}
	return c, nil
}

// shardCount normalizes a requested shard count to a power of two.
func shardCount(n int) int {
	if n <= 0 {
		n = DefaultShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Shards returns the shard count.
func (c *Cache) Shards() int { return len(c.shards) }

// shardFor returns the shard owning a normalized area ID.
func (c *Cache) shardFor(id string) *shard {
	return c.shards[areaHash(id)&c.mask]
}

// view returns the current view of an area (case-insensitive).
func (c *Cache) view(id string) (*areaView, bool) {
	key := areaKey(id)
	p, ok := c.shardFor(key).views[key]
	if !ok {
		return nil, false
	}
	return p.Load(), true
}

// prepare builds one cache entry with the default parameterization.
func prepare(rec *areaRec, eng policy.Engine) (*strategy, error) {
	return prepareWith(rec, eng, nil)
}

// prepareWith builds one cache entry with resolved engine parameters
// (nil = defaults). Params against an engine that declares none wrap
// policy.ErrBadParams.
func prepareWith(rec *areaRec, eng policy.Engine, params map[string]float64) (*strategy, error) {
	var prep policy.Strategy
	var err error
	if len(params) > 0 {
		pe, ok := eng.(policy.Parametric)
		if !ok {
			return nil, fmt.Errorf("server: area %s: engine %s: %w: engine accepts no params",
				rec.state.ID, eng.Name(), policy.ErrBadParams)
		}
		prep, err = pe.PrepareParams(rec.state.PolicyStats(0), params)
	} else {
		prep, err = eng.Prepare(rec.state.PolicyStats(0))
	}
	if err != nil {
		return nil, fmt.Errorf("server: area %s: engine %s: %w", rec.state.ID, eng.Name(), err)
	}
	return &strategy{rec: rec, eng: eng, prep: prep, hash: paramsHash(rec.state.B, params)}, nil
}

// prepareEager prepares every eager engine against a record, in the
// order an areaView keeps them (registry default first).
func (c *Cache) prepareEager(rec *areaRec) ([]*strategy, error) {
	entries := make([]*strategy, len(c.eager))
	for i, eng := range c.eager {
		st, err := prepare(rec, eng)
		if err != nil {
			return nil, err
		}
		entries[i] = st
	}
	return entries, nil
}

// Area returns the current record of an area (case-insensitive).
func (c *Cache) Area(id string) (*areaRec, bool) {
	v, ok := c.view(id)
	if !ok {
		return nil, false
	}
	return v.rec, true
}

// Get returns an area's default-engine strategy (the legacy lookup
// surface; always present for configured areas).
func (c *Cache) Get(id string) (*strategy, bool) {
	v, ok := c.view(id)
	if !ok {
		return nil, false
	}
	return v.entries[0], true
}

// Strategy returns the prepared strategy of (area, engine) at the
// area's default break-even and default parameterization. Eager
// engines always hit; other engines prepare lazily on first use,
// publish a fresh view of their area, and hit from then on. An engine
// that cannot serve the area's statistics returns the prepare error
// (wrapping policy.ErrInfeasible) without caching the failure.
func (c *Cache) Strategy(rec *areaRec, eng policy.Engine) (*strategy, error) {
	return c.StrategyParams(rec, eng, nil)
}

// StrategyParams is Strategy with resolved engine parameters in the
// cache key: each distinct parameterization of an engine is its own
// lazily-filled entry, invalidated like any other lazy entry when the
// area's statistics change.
//
// The returned strategy is always prepared from rec. When a stats
// write has replaced rec since the caller looked it up, the strategy
// is prepared from rec without being cached, so a caller that stamps
// rec into its reply and audit record describes exactly the strategy
// it served.
func (c *Cache) StrategyParams(rec *areaRec, eng policy.Engine, params map[string]float64) (*strategy, error) {
	sh := c.shardFor(rec.state.ID)
	p, ok := sh.views[rec.state.ID]
	if !ok {
		return nil, fmt.Errorf("server: unknown area %q", rec.state.ID)
	}
	name, hash := eng.Name(), paramsHash(rec.state.B, params)
	if v := p.Load(); v.rec == rec {
		if st := v.find(name, hash); st != nil {
			return st, nil
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Re-check under the lock: another request may have filled the
	// entry since the lock-free lookup.
	v := p.Load()
	if st := v.find(name, hash); st != nil && v.rec == rec {
		return st, nil
	}
	st, err := prepareWith(rec, eng, params)
	if err != nil {
		return nil, err
	}
	if v.rec == rec {
		entries := make([]*strategy, len(v.entries), len(v.entries)+1)
		copy(entries, v.entries)
		p.Store(&areaView{rec: rec, entries: append(entries, st)})
	}
	return st, nil
}

// Update swaps in new statistics for an existing area. b <= 0 keeps
// the area's current break-even interval. Every eager engine is
// re-prepared and validated before publication — a stats update that
// any serving-default engine cannot serve is rejected whole — and
// lazily-cached entries of other engines are dropped so they rebuild
// against the new statistics on next use. Only the area's own view is
// re-published; every other area keeps serving its current view
// untouched. Returns the area's new default-engine strategy.
func (c *Cache) Update(id string, b float64, s skirental.Stats) (*strategy, error) {
	key := areaKey(id)
	sh := c.shardFor(key)
	p, ok := sh.views[key]
	if !ok {
		return nil, fmt.Errorf("server: unknown area %q", id)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	prev := p.Load().rec
	if b <= 0 || math.IsNaN(b) {
		b = prev.state.B
	}
	state := AreaState{ID: key, B: b, Mu: s.MuBMinus, Q: s.QBPlus}
	if err := state.Validate(); err != nil {
		return nil, err
	}
	// The ID is unchanged, so the previous record's pre-formatted
	// metric labels carry over instead of being re-rendered.
	rec := &areaRec{
		state:     state,
		version:   prev.version + 1,
		latMetric: prev.latMetric,
		cntMetric: prev.cntMetric,
	}
	entries, err := c.prepareEager(rec)
	if err != nil {
		return nil, err
	}
	p.Store(&areaView{rec: rec, entries: entries})
	return entries[0], nil
}

// Restore replaces the state of existing areas from a snapshot: for
// each entry the record (state AND statistics version) is rebuilt and
// eager engines are re-prepared. All entries are validated and
// prepared before any area is touched, so a bad snapshot changes
// nothing; then each area publishes one fresh view. Entries naming
// unknown areas are rejected: the serving area set is fixed at boot.
// Concurrent decides are never blocked.
func (c *Cache) Restore(entries []AreaSnapshot) error {
	type staged struct {
		sh   *shard
		p    *atomic.Pointer[areaView]
		view *areaView
	}
	stage := make([]staged, 0, len(entries))
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		rec, err := newAreaRec(e.AreaState, e.Version)
		if err != nil {
			return err
		}
		if rec.version == 0 {
			return fmt.Errorf("server: restore: area %s has version 0", rec.state.ID)
		}
		if seen[rec.state.ID] {
			return fmt.Errorf("server: restore: duplicate area %q", rec.state.ID)
		}
		seen[rec.state.ID] = true
		sh := c.shardFor(rec.state.ID)
		p, ok := sh.views[rec.state.ID]
		if !ok {
			return fmt.Errorf("server: restore: unknown area %q (the serving set is fixed at boot)", rec.state.ID)
		}
		prepared, err := c.prepareEager(rec)
		if err != nil {
			return err
		}
		stage = append(stage, staged{sh: sh, p: p, view: &areaView{rec: rec, entries: prepared}})
	}
	for _, st := range stage {
		st.sh.mu.Lock()
		st.p.Store(st.view)
		st.sh.mu.Unlock()
	}
	return nil
}

// Areas returns every area record sorted by ID.
func (c *Cache) Areas() []*areaRec {
	out := make([]*areaRec, len(c.order))
	for i, p := range c.order {
		out[i] = p.Load().rec
	}
	return out
}

// List returns every area's default-engine strategy sorted by ID.
func (c *Cache) List() []*strategy {
	out := make([]*strategy, len(c.order))
	for i, p := range c.order {
		out[i] = p.Load().entries[0]
	}
	return out
}

// Len returns the number of configured areas.
func (c *Cache) Len() int { return len(c.order) }
