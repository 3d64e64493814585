package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"idlereduce/internal/obs"
)

// errTrailingJSON rejects JSON input with data after its value.
var errTrailingJSON = errors.New("trailing data after JSON value")

// trailingJSON checks that dec holds nothing but whitespace after the
// value it decoded. Every JSON input the server reads (request bodies,
// the -areas file, snapshots) goes through it. Decoder.More is not
// enough: it reports false before a stray ']' or '}', so `{...}]`
// would pass.
func trailingJSON(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		return errTrailingJSON
	}
	return nil
}

// statusWriter captures the status code written by a handler so the
// middleware can label its metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// requestIDHeader is the correlation header: propagated when the
// client sends one, minted otherwise, and always echoed on the reply.
const requestIDHeader = "X-Request-Id"

// ledgerHeader opts a decide request into the competitive-ratio ledger
// without touching the body (any non-empty value). Equivalent to the
// request's ledger field; on a batch it opts in every item.
const ledgerHeader = "X-Ledger"

// instrument wraps a handler with the serving middleware stack:
//
//   - bounded in-flight limiter (when limited): a full server answers
//     429 immediately instead of queueing without bound;
//   - in-flight gauge http_inflight_requests;
//   - request-id assignment/propagation (X-Request-Id, echoed on the
//     reply and carried through the context for audit records);
//   - a trace span per request when Config.TraceLog is set, recording
//     route, status and latency plus whatever the handler annotates;
//   - per-request context deadline (RequestTimeout);
//   - request counter http_requests_total{route,code} and latency
//     histogram http_request_ms{route};
//   - panic capture: a panicking handler becomes a 500 with a
//     structured body and an http_panics_total count, never a dropped
//     connection for sibling requests.
//
// healthz and metrics pass limited=false so probes and scrapes keep
// working while the server sheds decision load.
func (s *Server) instrument(route string, limited bool, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get(requestIDHeader)
		if reqID == "" {
			reqID = s.newRequestID()
		}
		w.Header().Set(requestIDHeader, reqID)
		if limited {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				s.rec.Add(obs.L("http_requests_total", "route", route, "code", "429"), 1)
				s.rec.Add("http_overload_total", 1)
				writeError(w, http.StatusTooManyRequests, "overloaded",
					"server at max in-flight requests; retry with backoff")
				return
			}
		}
		s.rec.Set("http_inflight_requests", float64(len(s.inflight)))

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		ctx = obs.WithRequestID(ctx, reqID)
		var span *obs.Span
		ctx, span = s.tracer.Start(ctx, "http_request", reqID)
		span.Set("route", route)
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.rec.Add("http_panics_total", 1)
				s.rec.Event("server_panic")
				debug.PrintStack()
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, "internal", "internal server error")
				}
			}
			code := sw.status
			if code == 0 {
				code = http.StatusOK
			}
			s.rec.Add(obs.L("http_requests_total", "route", route, "code", strconv.Itoa(code)), 1)
			s.rec.Observe(obs.L("http_request_ms", "route", route),
				float64(time.Since(t0))/float64(time.Millisecond))
			span.Set("code", code)
			span.End()
		}()
		h(sw, r.WithContext(ctx))
	})
}

// writeJSON writes v with the given status as a JSON body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError writes the structured error envelope.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Error: APIError{Code: code, Message: msg, Status: status}})
}

// decodeJSON strictly decodes a request body into v: unknown fields
// and trailing garbage are errors.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return trailingJSON(dec)
}
