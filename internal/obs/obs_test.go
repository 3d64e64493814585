package obs

import (
	"fmt"
	"strings"
	"testing"
)

// fmtL is the fmt-based reference form of L: every pair rendered as
// %s=%q.
func fmtL(name string, kv ...string) string {
	if len(kv) < 2 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// TestLMatchesFmt: L's names are byte-identical to the %q form for
// values that need escaping, including ones past the stack buffer.
func TestLMatchesFmt(t *testing.T) {
	cases := [][]string{
		{"plain"},
		{"m", "k", "v"},
		{"m", "a", "1", "b", "2"},
		{"m", "a", "1", "dangling"},
		{"m", "k", ""},
		{"m", "k", `say "hi"`},
		{"m", "k", `back\slash`},
		{"m", "k", "line\nbreak\ttab\r"},
		{"m", "k", "bell\a\x00nul\x7f"},
		{"m", "area", "münchen-東京-🚗"},
		{"m", "k", "bad\xffutf8\xc3"},
		{"m", "k", "nbsp\u00a0bom\ufeff"},
		{"decide_area_ms", "area", strings.Repeat("x", 200)},
		{"m", "k", strings.Repeat(`"`, 100)},
	}
	for _, c := range cases {
		got, want := L(c[0], c[1:]...), fmtL(c[0], c[1:]...)
		if got != want {
			t.Errorf("L(%q) = %q, want %q", c, got, want)
		}
	}
}

// TestLAllocs: a name that fits the stack buffer costs exactly the
// returned string.
func TestLAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		_ = L("http_requests_total", "route", "decide", "code", "200")
	}); n != 1 {
		t.Errorf("L allocs = %v, want 1", n)
	}
}

// BenchmarkL measures the per-request label formatting of
// http_requests_total{route,code}.
func BenchmarkL(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = L("http_requests_total", "route", "decide", "code", "200")
	}
}
