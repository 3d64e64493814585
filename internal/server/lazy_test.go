package server

import (
	"fmt"
	"net/http"
	"sync"
	"testing"

	"idlereduce/internal/adaptive"
)

// TestNewRejectsBadRetuneConfig: trackers are built on each area's
// first observation, but a retune config no tracker could be built
// from still fails boot.
func TestNewRejectsBadRetuneConfig(t *testing.T) {
	for name, rc := range map[string]RetuneConfig{
		"forgetting above 1":       {Forgetting: 1.5},
		"negative forgetting":      {Forgetting: -0.5},
		"negative min obs":         {MinObservations: -1},
		"negative drift threshold": {DriftThreshold: -1},
		"negative drift slack":     {DriftSlack: -0.5},
		"drift warmup of 1":        {DriftWarmup: 1},
	} {
		if _, err := New(Config{Areas: testAreas(), Retune: rc}); err == nil {
			t.Errorf("%s: New accepted %+v", name, rc)
		}
	}
	if _, err := New(Config{Areas: testAreas(), Retune: RetuneConfig{Forgetting: 1, MinObservations: 5}}); err != nil {
		t.Errorf("valid retune config rejected: %v", err)
	}
}

// TestBootLeavesAreasUnused: after boot no area has an observation
// tracker or per-area metric names, and the boot inputs are dropped; a
// decide builds the names of its area and an observe its tracker, and
// of no other area.
func TestBootLeavesAreasUnused(t *testing.T) {
	s, ts := newTestServer(t, nil)
	if s.cfg.Areas != nil || s.cfg.Restore != nil {
		t.Error("server keeps the boot area inputs")
	}
	used := func() (trackers, names []string) {
		for i := range s.cache.slots {
			sl := &s.cache.slots[i]
			id := sl.view.Load().rec.state.ID
			sl.obs.mu.Lock()
			if sl.obs.tr != nil {
				trackers = append(trackers, id)
			}
			sl.obs.mu.Unlock()
			if sl.names.Load() != nil {
				names = append(names, id)
			}
		}
		return trackers, names
	}
	if tr, nm := used(); len(tr)+len(nm) != 0 {
		t.Fatalf("at boot: trackers %v, names %v", tr, nm)
	}
	if status, raw := doJSON(t, "POST", ts.URL+"/v1/decide", `{"vehicle_id":"v","area":"Chicago"}`, nil); status != http.StatusOK {
		t.Fatalf("decide: %d %s", status, raw)
	}
	if status, raw := doJSON(t, "POST", ts.URL+"/v1/observe", `{"area":"atlanta","stop_sec":30}`, nil); status != http.StatusOK {
		t.Fatalf("observe: %d %s", status, raw)
	}
	tr, nm := used()
	if fmt.Sprint(tr) != "[atlanta]" || fmt.Sprint(nm) != "[chicago]" {
		t.Errorf("trackers %v, names %v; want [atlanta], [chicago]", tr, nm)
	}
}

// TestConcurrentFirstUse races the first observes and first decides of
// a never-used area against state-plane captures and a stats update
// that keeps the break-even interval. Exactly one tracker must be
// built: the observes number 1..N with no gap or repeat, the final
// snapshot has seen all N, and the per-area decide counter counts every
// decide. Run it under -race.
func TestConcurrentFirstUse(t *testing.T) {
	s, ts := newTestServer(t, nil)
	const (
		workers = 8
		each    = 20
	)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		seqs  = map[int64]int{}
		fails []string
	)
	fail := func(format string, args ...any) {
		mu.Lock()
		fails = append(fails, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				var resp ObserveResponse
				status, raw := doJSON(t, "POST", ts.URL+"/v1/observe", `{"area":"chicago","stop_sec":12}`, &resp)
				if status != http.StatusOK {
					fail("observe: %d %s", status, raw)
					return
				}
				mu.Lock()
				seqs[resp.Seq]++
				mu.Unlock()
			}
		}()
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				body := fmt.Sprintf(`{"vehicle_id":"v%d-%d","area":"chicago"}`, w, i)
				if status, raw := doJSON(t, "POST", ts.URL+"/v1/decide", body, nil); status != http.StatusOK {
					fail("decide: %d %s", status, raw)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		var last int64
		for i := 0; i < 20; i++ {
			for _, a := range s.StatePlane().Areas {
				if a.ID != "chicago" {
					continue
				}
				if a.Tracker.Seen < last {
					fail("snapshot seen regressed %d -> %d", last, a.Tracker.Seen)
				}
				last = a.Tracker.Seen
			}
		}
	}()
	go func() {
		defer wg.Done()
		if status, raw := doJSON(t, "PUT", ts.URL+"/v1/areas/chicago/stats", `{"mu":5,"q":0.5}`, nil); status != http.StatusOK {
			fail("stats update: %d %s", status, raw)
		}
	}()
	wg.Wait()
	for _, f := range fails {
		t.Error(f)
	}
	const n = workers * each
	if len(seqs) != n {
		t.Errorf("%d distinct observe seqs, want %d", len(seqs), n)
	}
	for seq := int64(1); seq <= n; seq++ {
		if seqs[seq] != 1 {
			t.Errorf("observe seq %d seen %d times", seq, seqs[seq])
		}
	}
	for _, a := range s.StatePlane().Areas {
		if a.ID == "chicago" && a.Tracker.Seen != n {
			t.Errorf("final snapshot seen %d, want %d", a.Tracker.Seen, n)
		}
	}
	snap := s.Recorder().Snapshot()
	if got, _ := snap.CounterValue(`decide_area_total{area="chicago"}`); got != n {
		t.Errorf("decide_area_total = %d, want %d", got, n)
	}
}

// TestRestoreKeepsUnstartedStreamsLazy: a snapshot's zero tracker
// states restore as no tracker, and the restored daemon's snapshot has
// the donor's bytes.
func TestRestoreKeepsUnstartedStreamsLazy(t *testing.T) {
	donor, ts := newTestServer(t, nil)
	for i := 0; i < 3; i++ {
		if status, raw := doJSON(t, "POST", ts.URL+"/v1/observe", `{"area":"atlanta","stop_sec":40}`, nil); status != http.StatusOK {
			t.Fatalf("observe: %d %s", status, raw)
		}
	}
	plane := donor.StatePlane()
	s, err := New(Config{Restore: &plane})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.cache.slots {
		sl := &s.cache.slots[i]
		id := sl.view.Load().rec.state.ID
		if started := sl.obs.tr != nil; started != (id == "atlanta") {
			t.Errorf("area %s: tracker built = %v after restore", id, started)
		}
	}
	got := s.StatePlane()
	got.TakenUnixMS = plane.TakenUnixMS
	a, err := EncodeSnapshot(plane)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSnapshot(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("restored snapshot differs:\n%s\n%s", a, b)
	}
	for _, a := range plane.Areas {
		if a.ID != "atlanta" && a.Tracker != (adaptive.TrackerState{}) {
			t.Errorf("unobserved area %s snapshots a non-zero tracker", a.ID)
		}
	}
}

// bootAllocsPerArea is the allocation budget New may spend per
// configured area: its record, its view with the eager entries, and
// each entry's prepared strategy. An observation tracker or formatted
// metric names per area at boot would exceed it.
const bootAllocsPerArea = 8

// TestBootAllocsPerArea: the allocations New adds for each extra area
// stay within bootAllocsPerArea.
func TestBootAllocsPerArea(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	allocs := func(n int) float64 {
		areas := SyntheticAreaStates(n, 28)
		return testing.AllocsPerRun(3, func() {
			if _, err := New(Config{Areas: areas}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(3_000)
	perArea := (large - small) / 2_000
	t.Logf("boot allocs per area: %.2f", perArea)
	if perArea > bootAllocsPerArea {
		t.Errorf("New allocates %.2f per area, budget %d", perArea, bootAllocsPerArea)
	}
}
