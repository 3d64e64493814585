// Package obs is the repo's zero-dependency observability layer: a
// concurrency-safe metrics registry (counters, gauges, streaming
// histograms with quantiles), a run-scoped Recorder that packages reach
// through a context (no-op by default, so uninstrumented callers pay
// essentially nothing), structured span/event logging built on
// log/slog, and pprof/trace profiling hooks for the CLIs.
//
// The design mirrors how deployment-oriented ski-rental systems treat
// per-decision telemetry as the interface between algorithm and
// operator: every layer (simulator, policy selector, adaptive wrapper,
// experiment drivers, fleet generator) publishes what it decided and
// what it cost, and the CLIs expose the aggregate as a JSON or
// Prometheus-style snapshot.
//
// Usage sketch:
//
//	reg := obs.NewRegistry()
//	rec := obs.NewRecorder("replay-1", reg, nil)
//	ctx := obs.WithRecorder(context.Background(), rec)
//	... instrumented code calls obs.FromContext(ctx) ...
//	reg.WriteJSON(os.Stdout)
package obs

import "strconv"

// L formats a metric name with label pairs in Prometheus style:
//
//	L("sim_stops_total", "policy", "DET") == `sim_stops_total{policy="DET"}`
//
// Keys and values are emitted in argument order; an odd trailing key is
// ignored. Values are quoted as Go string literals (strconv.Quote), so
// quotes, backslashes and control characters are escaped. L runs on request
// paths, so it builds the name in one pre-sized buffer: the returned
// string is its only allocation.
func L(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	// '{' and '}' plus, per pair, '=', two quotes and a ',' separator;
	// escapes beyond that only grow the buffer.
	n := len(name) + 2
	for i := 0; i+1 < len(kv); i += 2 {
		n += len(kv[i]) + len(kv[i+1]) + 4
	}
	var stack [128]byte
	b := stack[:0]
	if n > len(stack) {
		b = make([]byte, 0, n)
	}
	b = append(b, name...)
	b = append(b, '{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, kv[i]...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, kv[i+1])
	}
	b = append(b, '}')
	return string(b)
}
