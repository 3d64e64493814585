package server

import (
	"strings"
	"testing"

	"idlereduce/internal/skirental"
)

func testAreas() []AreaState {
	return []AreaState{
		{ID: "chicago", B: 28, Mu: 8, Q: 0.13},
		{ID: "atlanta", B: 28, Mu: 11, Q: 0.05},
	}
}

func TestNewCacheValidates(t *testing.T) {
	cases := []struct {
		name  string
		areas []AreaState
		want  string
	}{
		{"empty", nil, "no areas"},
		{"blank id", []AreaState{{ID: " ", B: 28, Mu: 1, Q: 0.1}}, "area id empty"},
		{"bad b", []AreaState{{ID: "x", B: 0, Mu: 1, Q: 0.1}}, "infeasible"},
		{"infeasible mu", []AreaState{{ID: "x", B: 28, Mu: 30, Q: 0.5}}, "infeasible"},
		{"bad q", []AreaState{{ID: "x", B: 28, Mu: 1, Q: 1.5}}, "infeasible"},
		{"duplicate", []AreaState{
			{ID: "X", B: 28, Mu: 1, Q: 0.1},
			{ID: "x", B: 28, Mu: 2, Q: 0.1},
		}, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewShardedCache(tc.areas, nil, 0)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("NewShardedCache(%v) err = %v, want containing %q", tc.areas, err, tc.want)
			}
		})
	}
}

func TestCacheGetCaseInsensitive(t *testing.T) {
	c, err := NewShardedCache(testAreas(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"chicago", "Chicago", " CHICAGO "} {
		if _, ok := c.Get(id); !ok {
			t.Errorf("Get(%q) missed", id)
		}
	}
	if _, ok := c.Get("nowhere"); ok {
		t.Error("Get(nowhere) unexpectedly hit")
	}
}

func TestCacheUpdateSwapsStrategy(t *testing.T) {
	c, err := NewShardedCache(testAreas(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := c.Get("chicago")
	if got := before.Info().Choice; got != "DET" {
		t.Fatalf("boot choice %s, want DET", got)
	}
	// Heavy long-stop mass with little short mass pushes the optimum
	// to TOI (shut off immediately).
	next, err := c.Update("chicago", 0, skirental.Stats{MuBMinus: 5, QBPlus: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if next.Info().Choice != "TOI" {
		t.Errorf("updated choice %s, want TOI", next.Info().Choice)
	}
	if next.rec.state.B != 28 {
		t.Errorf("b = 0 should keep the old break-even, got %v", next.rec.state.B)
	}
	if next.rec.version != before.rec.version+1 {
		t.Errorf("version %d, want %d", next.rec.version, before.rec.version+1)
	}
	// The old entry is immutable; readers holding it keep a snapshot.
	if before.Info().Choice != "DET" {
		t.Error("old entry mutated by update")
	}
	// Untouched areas keep their entries.
	if a, _ := c.Get("atlanta"); a.rec.version != 1 {
		t.Errorf("atlanta version %d after chicago update", a.rec.version)
	}
}

func TestCacheUpdateRejectsAndKeepsOld(t *testing.T) {
	c, err := NewShardedCache(testAreas(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Update("nowhere", 0, skirental.Stats{}); err == nil {
		t.Error("update of unknown area succeeded")
	}
	if _, err := c.Update("chicago", 0, skirental.Stats{MuBMinus: 100, QBPlus: 0.9}); err == nil {
		t.Error("infeasible update succeeded")
	}
	got, _ := c.Get("chicago")
	if got.rec.version != 1 || got.rec.state.Mu != 8 {
		t.Errorf("failed update changed the entry: %+v", got.rec.state)
	}
}

func TestCacheListSorted(t *testing.T) {
	c, err := NewShardedCache(testAreas(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	list := c.List()
	if len(list) != 2 || list[0].rec.state.ID != "atlanta" || list[1].rec.state.ID != "chicago" {
		ids := make([]string, len(list))
		for i, s := range list {
			ids[i] = s.rec.state.ID
		}
		t.Errorf("List order %v", ids)
	}
	if c.Len() != 2 {
		t.Errorf("Len %d", c.Len())
	}
}

func TestDefaultAreaStates(t *testing.T) {
	areas, err := DefaultAreaStates(28)
	if err != nil {
		t.Fatal(err)
	}
	if len(areas) != 3 {
		t.Fatalf("areas %d", len(areas))
	}
	for _, a := range areas {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.ID, err)
		}
		if a.Mu <= 0 || a.Q <= 0 || a.Q >= 1 {
			t.Errorf("%s: degenerate stats mu=%v q=%v", a.ID, a.Mu, a.Q)
		}
	}
}

func TestReadWriteAreaStates(t *testing.T) {
	areas, err := DefaultAreaStates(28)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteAreaStates(&buf, areas); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAreaStates(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(areas) || back[0] != areas[0] {
		t.Errorf("round trip mismatch: %+v vs %+v", back, areas)
	}
	if _, err := ReadAreaStates(strings.NewReader(`[]`)); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := ReadAreaStates(strings.NewReader(`[{"id":"x","b":28,"mu":1,"q":0.1,"bogus":1}]`)); err == nil {
		t.Error("unknown config field accepted")
	}
	if _, err := ReadAreaStates(strings.NewReader(`[{"id":"x","b":-1,"mu":1,"q":0.1}]`)); err == nil {
		t.Error("infeasible config accepted")
	}
}

// TestReadAreaStatesRejectsTrailingData: a config file holds exactly one
// array. A stray bracket or a second array appended to the file fails
// boot instead of silently serving the first array; trailing
// whitespace is fine.
func TestReadAreaStatesRejectsTrailingData(t *testing.T) {
	const one = `[{"id":"x","b":28,"mu":1,"q":0.1}]`
	for name, body := range map[string]string{
		"stray bracket": one + `]`,
		"stray brace":   one + `}`,
		"second array":  one + "\n" + `[{"id":"y","b":28,"mu":1,"q":0.1}]`,
		"garbage":       one + ` x`,
	} {
		if _, err := ReadAreaStates(strings.NewReader(body)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("%s: err = %v, want a trailing-data error", name, err)
		}
	}
	if _, err := ReadAreaStates(strings.NewReader(one + " \n\t\n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}
