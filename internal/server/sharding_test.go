package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"idlereduce/internal/policy"
	"idlereduce/internal/skirental"
)

func TestShardCountRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{-3, DefaultShards}, {0, DefaultShards},
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {16, 16}, {17, 32}, {1000, 1024},
	}
	for _, tc := range cases {
		if got := shardCount(tc.in); got != tc.want {
			t.Errorf("shardCount(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestShardedCachePlacement(t *testing.T) {
	areas := SyntheticAreaStates(512, 28)
	c, err := NewShardedCache(areas, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 16 {
		t.Fatalf("Shards() = %d, want 16", c.Shards())
	}
	// Every area is reachable, lands on a stable shard, and the FNV
	// placement actually spreads areas rather than piling on one shard.
	used := make(map[*shard]int)
	for _, a := range areas {
		rec, ok := c.Area(a.ID)
		if !ok || rec.state.ID != a.ID {
			t.Fatalf("area %s not served", a.ID)
		}
		sh := c.shardFor(a.ID)
		if sh != c.shardFor(a.ID) {
			t.Fatalf("area %s moved shards between lookups", a.ID)
		}
		used[sh]++
	}
	if len(used) < 8 {
		t.Errorf("512 areas landed on only %d of 16 shards", len(used))
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// viewsOf returns every area's current view, keyed by area ID.
func viewsOf(c *Cache) map[string]*areaView {
	out := make(map[string]*areaView, c.Len())
	for _, sh := range c.shards {
		for id, sl := range sh.slots {
			out[id] = sl.view.Load()
		}
	}
	return out
}

// TestAreaWriteIsolated: a stats update or a lazy engine fill
// publishes a fresh view of exactly the target area. Every other area
// — including the target's shard-mates — keeps its view pointer, so a
// write neither copies nor perturbs unrelated areas.
func TestAreaWriteIsolated(t *testing.T) {
	areas := SyntheticAreaStates(64, 28)
	c, err := NewShardedCache(areas, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := policy.Lookup(policy.MultislopeEngine)
	if err != nil {
		t.Fatal(err)
	}
	target := areas[0].ID
	mates := 0
	for _, a := range areas[1:] {
		if c.shardFor(a.ID) == c.shardFor(target) {
			mates++
		}
	}
	if mates == 0 {
		t.Fatal("fixture has no shard-mate of the target area")
	}
	check := func(op string, before map[string]*areaView) {
		t.Helper()
		for id, v := range viewsOf(c) {
			if republished := v != before[id]; republished != (id == target) {
				t.Errorf("%s of %s: area %s republished = %v", op, target, id, republished)
			}
		}
	}

	rec, _ := c.Area(target)
	before := viewsOf(c)
	if _, err := c.Update(target, 0,
		skirental.Stats{MuBMinus: rec.state.Mu + 0.5, QBPlus: rec.state.Q}); err != nil {
		t.Fatal(err)
	}
	check("update", before)
	rec2, _ := c.Area(target)
	if rec2.version != rec.version+1 {
		t.Fatalf("target version %d, want %d", rec2.version, rec.version+1)
	}

	before = viewsOf(c)
	st, err := c.Strategy(rec2, ms)
	if err != nil {
		t.Fatal(err)
	}
	check("lazy fill", before)
	filled := viewsOf(c)[target]
	if filled.rec != rec2 || len(filled.entries) != len(before[target].entries)+1 || filled.entries[len(filled.entries)-1] != st {
		t.Errorf("lazy fill view: rec %p (want %p), %d entries (want %d)",
			filled.rec, rec2, len(filled.entries), len(before[target].entries)+1)
	}
}

// TestCacheWriteAllocsIndependentOfAreaCount is the scale guard on the
// write path: one stats update, and one update plus a lazy engine
// fill, allocate the same on a 1k-area cache as on a 100k-area cache.
// A write that copied per-shard state would allocate more with more
// areas.
func TestCacheWriteAllocsIndependentOfAreaCount(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	ms, err := policy.Lookup(policy.MultislopeEngine)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(n int) (update, fill float64) {
		c, err := NewShardedCache(SyntheticAreaStates(n, 28), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		id := SyntheticAreaStates(1, 28)[0].ID
		rec, _ := c.Area(id)
		s := rec.state.Stats()
		update = testing.AllocsPerRun(200, func() {
			if _, err := c.Update(id, 0, s); err != nil {
				t.Fatal(err)
			}
		})
		fill = testing.AllocsPerRun(200, func() {
			def, err := c.Update(id, 0, s)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Strategy(def.rec, ms); err != nil {
				t.Fatal(err)
			}
		})
		return update, fill
	}
	smallU, smallF := measure(1_000)
	largeU, largeF := measure(100_000)
	if smallU != largeU {
		t.Errorf("Update allocs: %v at 1k areas, %v at 100k", smallU, largeU)
	}
	if smallF != largeF {
		t.Errorf("Update+lazy fill allocs: %v at 1k areas, %v at 100k", smallF, largeF)
	}
}

// TestDecideDeterministicAcrossShards is satellite determinism for the
// sharded cache: the shard count is a pure capacity knob, invisible on
// the wire. Every (workers, shards) combination must serve byte-equal
// replies, including under concurrent clients.
func TestDecideDeterministicAcrossShards(t *testing.T) {
	areas := append(testAreas(),
		AreaState{ID: "nrandia", B: 28, Mu: 4, Q: 0.25})
	areas = append(areas, SyntheticAreaStates(61, 28)...)

	singles := []string{
		`{"vehicle_id":"s-1","area":"chicago","seed":11}`,
		`{"vehicle_id":"s-2","area":"syn-000037","seed":12}`,
		`{"vehicle_id":"s-3","area":"nrandia","seed":13}`,
		`{"vehicle_id":"s-4","area":"chicago","b":55,"seed":14}`,
	}
	batch := `{"seed":11,"requests":[
		{"vehicle_id":"b-1","area":"nrandia"},
		{"vehicle_id":"b-2","area":"syn-000007"},
		{"vehicle_id":"b-3","area":"syn-000042","b":33},
		{"vehicle_id":"b-4","area":"atlanta"}]}`

	var wantSingles [][]byte
	var wantBatch []byte
	first := true
	for _, workers := range []int{1, 4, 8} {
		for _, shards := range []int{1, 4, 16} {
			name := fmt.Sprintf("workers=%d/shards=%d", workers, shards)
			t.Run(name, func(t *testing.T) {
				s, err := New(Config{Areas: areas, Workers: workers, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				if got := s.cache.Shards(); got != shards {
					t.Fatalf("cache built %d shards, want %d", got, shards)
				}
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()

				// Concurrent clients first, so the byte-compare below runs
				// against a cache whose shards have already served
				// interleaved traffic.
				var wg sync.WaitGroup
				for cl := 0; cl < 4; cl++ {
					wg.Add(1)
					go func(cl int) {
						defer wg.Done()
						for r := 0; r < 8; r++ {
							body := fmt.Sprintf(`{"vehicle_id":"cc-%d","area":"syn-%06d","seed":9}`, cl, (cl*13+r)%61)
							doJSON(t, "POST", ts.URL+"/v1/decide", body, nil)
						}
					}(cl)
				}
				wg.Wait()

				for i, body := range singles {
					status, raw := doJSON(t, "POST", ts.URL+"/v1/decide", body, nil)
					if status != http.StatusOK {
						t.Fatalf("single %d status %d: %s", i, status, raw)
					}
					if first {
						wantSingles = append(wantSingles, raw)
					} else if !bytes.Equal(raw, wantSingles[i]) {
						t.Errorf("single %d diverged at %s:\n%s\n%s", i, name, raw, wantSingles[i])
					}
				}
				status, raw := doJSON(t, "POST", ts.URL+"/v1/decide/batch", batch, nil)
				if status != http.StatusOK {
					t.Fatalf("batch status %d: %s", status, raw)
				}
				if first {
					wantBatch = raw
					first = false
				} else if !bytes.Equal(raw, wantBatch) {
					t.Errorf("batch diverged at %s:\n%s\n%s", name, raw, wantBatch)
				}
			})
		}
	}
}

// TestPerShardHitMetrics: decide traffic increments the owning shard's
// hit counter, so operators can see skewed shards.
func TestPerShardHitMetrics(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) { c.Shards = 4 })
	for i := 0; i < 6; i++ {
		if status, _ := doJSON(t, "POST", ts.URL+"/v1/decide",
			`{"vehicle_id":"m","area":"chicago"}`, nil); status != http.StatusOK {
			t.Fatal("decide failed")
		}
	}
	sh := s.cache.shardFor("chicago")
	snap := s.rec.Snapshot()
	if got, _ := snap.CounterValue(sh.hitMetric); got != 6 {
		t.Errorf("%s = %v, want 6", sh.hitMetric, got)
	}
	if got, _ := snap.CounterValue("decide_cache_hits_total"); got != 6 {
		t.Errorf("global hit counter = %v, want 6", got)
	}
}
