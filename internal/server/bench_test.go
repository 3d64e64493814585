package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"idlereduce/internal/policy"
)

// benchDecide drives POST /v1/decide through the full middleware stack
// without a network socket, so the pair below isolates the cost of the
// forensics layer (tracing + audit) on the hot path.
func benchDecide(b *testing.B, cfg Config) {
	cfg.Areas = testAreas()
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	const body = `{"vehicle_id":"bench-1","area":"chicago"}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/decide", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	b.StopTimer()
	if err := s.closeLogs(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDecideObsOff is the baseline: no trace log, no audit log.
// The forensics code must cost only two nil checks here.
func BenchmarkDecideObsOff(b *testing.B) {
	benchDecide(b, Config{})
}

// BenchmarkDecideObsOn measures the same path with tracing and audit
// enabled, writing to io.Discard so the sink itself is free and the
// measured delta is the instrumentation (span bookkeeping + record
// marshal + bounded enqueue).
func BenchmarkDecideObsOn(b *testing.B) {
	benchDecide(b, Config{TraceLog: io.Discard, AuditLog: io.Discard})
}

// benchCacheAreas is the area count of the cache write benchmarks: the
// fleet scale at which a write that copied per-shard state would show.
const benchCacheAreas = 100_000

// benchCache builds a benchCacheAreas-area cache for the write
// benchmarks.
func benchCache(b *testing.B) (*Cache, []AreaState) {
	b.Helper()
	areas := SyntheticAreaStates(benchCacheAreas, 28)
	c, err := NewShardedCache(areas, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	return c, areas
}

// BenchmarkCacheUpdate measures one stats update (Cache.Update) on a
// 100k-area cache, rotating over the areas.
func BenchmarkCacheUpdate(b *testing.B) {
	c, areas := benchCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := areas[i%len(areas)]
		if _, err := c.Update(a.ID, 0, a.Stats()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheLazyFill measures one lazy engine fill (the first
// multislope3 lookup after a stats update) on a 100k-area cache. The
// update that invalidates the entry runs outside the timer.
func BenchmarkCacheLazyFill(b *testing.B) {
	c, areas := benchCache(b)
	ms, err := policy.Lookup(policy.MultislopeEngine)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := areas[i%len(areas)]
		b.StopTimer()
		def, err := c.Update(a.ID, 0, a.Stats())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := c.Strategy(def.rec, ms); err != nil {
			b.Fatal(err)
		}
	}
}
