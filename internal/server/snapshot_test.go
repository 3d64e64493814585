package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"idlereduce/internal/adaptive"
)

func testStatePlane() StatePlane {
	return StatePlane{
		TakenUnixMS: 1700000000000,
		Areas: []AreaSnapshot{
			{AreaState: AreaState{ID: "atlanta", B: 28, Mu: 11, Q: 0.05}, Version: 1},
			{
				AreaState: AreaState{ID: "chicago", B: 28, Mu: 8, Q: 0.13},
				Version:   3,
				Tracker:   adaptive.TrackerState{Seen: 4, WSum: 4, MuSum: 24, QSum: 0},
			},
		},
	}
}

func TestSnapshotEncodeDecodeRoundtrip(t *testing.T) {
	plane := testStatePlane()
	data, err := EncodeSnapshot(plane)
	if err != nil {
		t.Fatal(err)
	}
	again, err := EncodeSnapshot(plane)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("snapshot encoding is not deterministic")
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TakenUnixMS != plane.TakenUnixMS || len(got.Areas) != len(plane.Areas) {
		t.Fatalf("roundtrip lost shape: %+v", got)
	}
	for i := range plane.Areas {
		if got.Areas[i] != plane.Areas[i] {
			t.Errorf("area %d roundtripped to %+v, want %+v", i, got.Areas[i], plane.Areas[i])
		}
	}
}

func TestEncodeSnapshotRejectsInvalidPlanes(t *testing.T) {
	bad := []StatePlane{
		{Areas: []AreaSnapshot{{AreaState: AreaState{ID: "x", B: -1, Mu: 1, Q: 0.1}, Version: 1}}},
		{Areas: []AreaSnapshot{{AreaState: AreaState{ID: "x", B: 28, Mu: 8, Q: 0.1}}}}, // version 0
		{Areas: []AreaSnapshot{
			{AreaState: AreaState{ID: "x", B: 28, Mu: 8, Q: 0.1}, Version: 1},
			{AreaState: AreaState{ID: "x", B: 28, Mu: 8, Q: 0.1}, Version: 1},
		}},
		{Areas: []AreaSnapshot{{
			AreaState: AreaState{ID: "x", B: 28, Mu: 8, Q: 0.1}, Version: 1,
			Tracker: adaptive.TrackerState{Seen: -1},
		}}},
	}
	for i, p := range bad {
		if _, err := EncodeSnapshot(p); err == nil {
			t.Errorf("case %d: invalid plane encoded", i)
		}
	}
}

// TestDecodeSnapshotFailsClosed drives every corruption mode through
// the decoder: each must reject the whole snapshot, never panic, never
// return partial state.
func TestDecodeSnapshotFailsClosed(t *testing.T) {
	data, err := EncodeSnapshot(testStatePlane())
	if err != nil {
		t.Fatal(err)
	}
	// A bit flip inside the payload breaks the checksum; a flip inside
	// the checksum field breaks the comparison the other way.
	flipPayload := append([]byte(nil), data...)
	at := bytes.Index(flipPayload, []byte(`"payload"`)) + 20
	flipPayload[at] ^= 0x01

	cases := map[string][]byte{
		"empty":           {},
		"garbage":         []byte("not json at all"),
		"truncated":       data[:len(data)/2],
		"trailing":        append(append([]byte(nil), data...), []byte(`{"x":1}`)...),
		"trailing_close":  append(append([]byte(nil), data...), ']'),
		"bit_flip":        flipPayload,
		"wrong_format":    bytes.Replace(data, []byte(`"idled-state"`), []byte(`"other-state"`), 1),
		"future_schema":   bytes.Replace(data, []byte(`"schema_version":1`), []byte(`"schema_version":2`), 1),
		"zero_schema":     bytes.Replace(data, []byte(`"schema_version":1`), []byte(`"schema_version":0`), 1),
		"bad_checksum":    bytes.Replace(data, []byte(`"checksum":"sha256:`), []byte(`"checksum":"sha256:00`), 1),
		"unknown_field":   bytes.Replace(data, []byte(`"format"`), []byte(`"extra":1,"format"`), 1),
		"empty_payload":   []byte(`{"format":"idled-state","schema_version":1,"checksum":"sha256:x"}`),
		"null_everything": []byte(`null`),
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeSnapshot(body); err == nil {
				t.Errorf("corrupt snapshot decoded cleanly")
			}
		})
	}
	// Sanity: the untouched bytes still decode.
	if _, err := DecodeSnapshot(data); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// buildDriftedServer boots a server, streams a drifting observation
// load into chicago until a retune lands, and returns it with its
// audit sink.
func buildDriftedServer(t *testing.T) (*Server, string, *syncBuffer) {
	t.Helper()
	audit := &syncBuffer{}
	s, ts := newTestServer(t, func(c *Config) {
		c.Retune = retuneTestConfig()
		c.AuditLog = audit
	})
	driveSteady(t, ts.URL, "chicago", 20)
	alarm := driveDrift(t, ts.URL, "chicago", 60)
	if !alarm.Retuned {
		t.Fatalf("setup retune did not land: %+v", alarm)
	}
	return s, ts.URL, audit
}

// decideProbes is a fixed request set that exercises cache hits, a
// custom-B miss, and both test areas.
var decideProbes = []string{
	`{"vehicle_id":"p-1","area":"chicago","seed":21}`,
	`{"vehicle_id":"p-2","area":"chicago","b":44,"seed":22}`,
	`{"vehicle_id":"p-3","area":"atlanta","seed":23}`,
}

func collectDecides(t *testing.T, url string) [][]byte {
	t.Helper()
	var out [][]byte
	for i, body := range decideProbes {
		status, raw := doJSON(t, "POST", url+"/v1/decide", body, nil)
		if status != http.StatusOK {
			t.Fatalf("probe %d: status %d: %s", i, status, raw)
		}
		out = append(out, raw)
	}
	return out
}

// TestSnapshotRestoreBootEquivalence: a daemon booted from a snapshot
// (idled serve -restore path, Config.Restore) is indistinguishable from
// the donor — byte-identical decisions, same versions, and the
// observation streams continue where they left off.
func TestSnapshotRestoreBootEquivalence(t *testing.T) {
	s, url, _ := buildDriftedServer(t)
	data, err := EncodeSnapshot(s.StatePlane())
	if err != nil {
		t.Fatal(err)
	}
	plane, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}

	restored, ts2 := newTestServer(t, func(c *Config) {
		c.Areas = nil
		c.Restore = &plane
		c.Retune = retuneTestConfig()
	})
	want := collectDecides(t, url)
	got := collectDecides(t, ts2.URL)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Errorf("probe %d diverged after restore boot:\ndonor    %s\nrestored %s", i, want[i], got[i])
		}
	}
	donorArea := areaInfo(t, url, "chicago")
	restArea := areaInfo(t, ts2.URL, "chicago")
	if donorArea != restArea {
		t.Errorf("area listing diverged:\ndonor    %+v\nrestored %+v", donorArea, restArea)
	}

	// The observation stream continues: both daemons see the same next
	// observation and must produce bit-identical updates.
	var donorNext, restNext ObserveResponse
	if status, _ := doJSON(t, "POST", url+"/v1/observe", `{"area":"chicago","stop_sec":9}`, &donorNext); status != http.StatusOK {
		t.Fatal("donor observe failed")
	}
	if status, _ := doJSON(t, "POST", ts2.URL+"/v1/observe", `{"area":"chicago","stop_sec":9}`, &restNext); status != http.StatusOK {
		t.Fatal("restored observe failed")
	}
	if donorNext != restNext {
		t.Errorf("observe stream diverged across restore:\ndonor    %+v\nrestored %+v", donorNext, restNext)
	}
	if restNext.Seq < 2 {
		t.Errorf("restored stream restarted at seq %d instead of continuing", restNext.Seq)
	}
	_ = restored
}

// TestSnapshotLiveRestoreEquivalence: POST /v1/snapshot swaps a
// running daemon's whole state plane onto the donor's, byte-for-byte.
func TestSnapshotLiveRestoreEquivalence(t *testing.T) {
	s, url, _ := buildDriftedServer(t)
	var raw []byte
	{
		resp, err := http.Get(url + "/v1/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf := new(bytes.Buffer)
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot get: %d: %s", resp.StatusCode, buf.Bytes())
		}
		raw = buf.Bytes()
	}
	if _, err := DecodeSnapshot(raw); err != nil {
		t.Fatalf("served snapshot does not verify: %v", err)
	}

	// The target starts from the same boot config but has seen none of
	// the donor's observations or retunes.
	_, ts3 := newTestServer(t, func(c *Config) { c.Retune = retuneTestConfig() })
	var rr SnapshotRestoreResponse
	status, body := doJSON(t, "POST", ts3.URL+"/v1/snapshot", string(raw), &rr)
	if status != http.StatusOK {
		t.Fatalf("restore: status %d: %s", status, body)
	}
	if rr.Restored != 2 || rr.SchemaVersion != SnapshotSchemaVersion {
		t.Fatalf("restore reply %+v", rr)
	}
	want := collectDecides(t, url)
	got := collectDecides(t, ts3.URL)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Errorf("probe %d diverged after live restore:\ndonor    %s\nrestored %s", i, want[i], got[i])
		}
	}
	_ = s
}

func TestSnapshotRestoreRejectsUnknownAreas(t *testing.T) {
	plane := testStatePlane()
	plane.Areas = append(plane.Areas, AreaSnapshot{
		AreaState: AreaState{ID: "zeeland", B: 28, Mu: 9, Q: 0.1}, Version: 2,
	})
	data, err := EncodeSnapshot(plane)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, nil)
	before := areaInfo(t, ts.URL, "chicago")
	status, raw := doJSON(t, "POST", ts.URL+"/v1/snapshot", string(data), nil)
	if status != http.StatusUnprocessableEntity || errCode(t, raw) != "bad_snapshot" {
		t.Fatalf("unknown-area restore: status %d: %s", status, raw)
	}
	// All-or-nothing: the known areas were not partially applied.
	if after := areaInfo(t, ts.URL, "chicago"); after != before {
		t.Errorf("rejected restore still mutated chicago: %+v -> %+v", before, after)
	}
}

func TestSnapshotRestoreRejectsCorruptUploads(t *testing.T) {
	_, ts := newTestServer(t, nil)
	data, err := EncodeSnapshot(testStatePlane())
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(data, []byte(`"chicago"`), []byte(`"CHICAGO"`), 1)
	for name, body := range map[string]string{
		"garbage":  `{"format":"idled-state"`,
		"tampered": string(tampered),
	} {
		status, raw := doJSON(t, "POST", ts.URL+"/v1/snapshot", body, nil)
		if status != http.StatusBadRequest || errCode(t, raw) != "bad_snapshot" {
			t.Errorf("%s: status %d: %s", name, status, raw)
		}
	}
}

// TestAuditVerifyAcrossRestoreBoundary: the decision audit trail stays
// replayable when a log spans a snapshot/restore — the restored
// daemon's first observe record chains onto the donor's last, and
// decide records keep verifying with the restored stats version.
func TestAuditVerifyAcrossRestoreBoundary(t *testing.T) {
	audit := &syncBuffer{}
	s, ts := newTestServer(t, func(c *Config) {
		c.Retune = retuneTestConfig()
		c.AuditLog = audit
	})
	driveSteady(t, ts.URL, "chicago", 20)
	alarm := driveDrift(t, ts.URL, "chicago", 60)
	if !alarm.Retuned {
		t.Fatal("setup retune did not land")
	}
	if status, _ := doJSON(t, "POST", ts.URL+"/v1/decide",
		`{"vehicle_id":"pre","area":"chicago","seed":5}`, nil); status != http.StatusOK {
		t.Fatal("pre-restore decide failed")
	}
	data, err := EncodeSnapshot(s.StatePlane())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.auditW.Flush(); err != nil {
		t.Fatal(err)
	}

	plane, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	// The successor appends to the same audit trail (same file in a
	// real deployment).
	s2, ts2 := newTestServer(t, func(c *Config) {
		c.Areas = nil
		c.Restore = &plane
		c.Retune = retuneTestConfig()
		c.AuditLog = audit
	})
	var next ObserveResponse
	if status, _ := doJSON(t, "POST", ts2.URL+"/v1/observe", `{"area":"chicago","stop_sec":8}`, &next); status != http.StatusOK {
		t.Fatal("post-restore observe failed")
	}
	if status, _ := doJSON(t, "POST", ts2.URL+"/v1/decide",
		`{"vehicle_id":"post","area":"chicago","seed":5}`, nil); status != http.StatusOK {
		t.Fatal("post-restore decide failed")
	}
	if err := s2.auditW.Flush(); err != nil {
		t.Fatal(err)
	}

	log := audit.String()
	rep, err := VerifyAudit(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("audit replay across restore boundary failed: %+v", rep)
	}

	// The boundary is covered, not skipped: the successor's first
	// observe record continues the donor's chain, and tampering with
	// its inherited priors must be caught.
	lines := strings.Split(strings.TrimSpace(log), "\n")
	var boundary ObserveRecord
	boundaryLine := -1
	for i, line := range lines {
		var rec ObserveRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			continue
		}
		if rec.Kind == observeKind && rec.Seq == next.Seq {
			boundary, boundaryLine = rec, i
		}
	}
	if boundaryLine < 0 {
		t.Fatal("post-restore observe record not found in log")
	}
	boundary.PrevW *= 1.0000001
	tamperedLine, err := json.Marshal(boundary)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]string{}, lines...)
	tampered[boundaryLine] = string(tamperedLine)
	rep, err = VerifyAudit(strings.NewReader(strings.Join(tampered, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Error("tampered cross-boundary priors still verified")
	}
}

// TestSnapshotSelfRestoreIsIdempotent: restoring a daemon's own
// snapshot into itself changes nothing.
func TestSnapshotSelfRestoreIsIdempotent(t *testing.T) {
	s, url, _ := buildDriftedServer(t)
	want := collectDecides(t, url)
	data, err := EncodeSnapshot(s.StatePlane())
	if err != nil {
		t.Fatal(err)
	}
	if status, raw := doJSON(t, "POST", url+"/v1/snapshot", string(data), nil); status != http.StatusOK {
		t.Fatalf("self restore: status %d: %s", status, raw)
	}
	got := collectDecides(t, url)
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Errorf("probe %d changed after self-restore:\n%s\n%s", i, want[i], got[i])
		}
	}
}
