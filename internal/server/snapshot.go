package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"idlereduce/internal/adaptive"
	"idlereduce/internal/ledger"
)

// Snapshot encoding of the idled state plane. The wire form is a
// versioned, checksummed envelope:
//
//	{"format": "idled-state", "schema_version": 1,
//	 "checksum": "sha256:<hex of payload bytes>", "payload": {...}}
//
// The checksum covers the exact payload bytes as they appear in the
// envelope, so any torn write, truncation or bit flip is detected
// before a single field is trusted. Decoding is fail-closed: unknown
// envelope fields, format or version mismatches, checksum mismatches,
// and structurally invalid areas or tracker states all reject the
// whole snapshot without touching serving state.

const (
	// snapshotFormat names the envelope; a different format string is
	// some other tool's file, not a version skew.
	snapshotFormat = "idled-state"
	// SnapshotSchemaVersion is the payload schema this build writes and
	// the newest it reads.
	SnapshotSchemaVersion = 1
	// maxSnapshotBytes bounds a restore upload (100k areas encode to a
	// few tens of MB; 256 MiB leaves generous headroom without letting
	// a stray upload exhaust memory).
	maxSnapshotBytes = 256 << 20
)

// AreaSnapshot is one area's complete serving state: the configured
// statistics, their version counter, and the streaming estimator
// (sufficient statistics plus CUSUM detector) feeding re-tunes.
type AreaSnapshot struct {
	AreaState
	// Version is the area's statistics version (starts at 1, bumped by
	// every stats update and re-tune); restored so audit trails stay
	// monotonic across the restore boundary.
	Version uint64 `json:"version"`
	// Tracker is the area's observation stream state. The zero value
	// means "no stream yet" (or the stream was invalidated by a
	// break-even change) and restores to a fresh tracker.
	Tracker adaptive.TrackerState `json:"tracker"`
}

// StatePlane is the snapshot payload: every area's state, in ID order
// for reproducible encodings.
type StatePlane struct {
	// TakenUnixMS is the capture wall-clock time (forensics only;
	// restore does not depend on it).
	TakenUnixMS int64 `json:"taken_unix_ms"`
	// Areas holds one entry per configured area, sorted by ID.
	Areas []AreaSnapshot `json:"areas"`
	// Ledger is the competitive-ratio ledger's state: pending entries,
	// the settled-id ring, and the empirical-CR accumulators. Omitted
	// when the ledger has nothing worth persisting, so ledger-idle
	// snapshots keep their pre-ledger bytes (an additive field at
	// schema version 1, not a version bump).
	Ledger *ledger.State `json:"ledger,omitempty"`
}

// Validate checks every entry is restorable on its own terms (the
// cache additionally requires the IDs to exist).
func (p StatePlane) Validate() error {
	seen := make(map[string]bool, len(p.Areas))
	for _, a := range p.Areas {
		if err := a.AreaState.Validate(); err != nil {
			return fmt.Errorf("server: snapshot: %w", err)
		}
		if a.Version == 0 {
			return fmt.Errorf("server: snapshot: area %s has version 0", a.ID)
		}
		if seen[a.ID] {
			return fmt.Errorf("server: snapshot: duplicate area %q", a.ID)
		}
		seen[a.ID] = true
		if err := a.Tracker.Validate(); err != nil {
			return fmt.Errorf("server: snapshot: area %s: %w", a.ID, err)
		}
	}
	if p.Ledger != nil {
		if err := p.Ledger.Validate(); err != nil {
			return fmt.Errorf("server: snapshot: %w", err)
		}
	}
	return nil
}

// snapshotEnvelope is the versioned wire wrapper.
type snapshotEnvelope struct {
	Format        string          `json:"format"`
	SchemaVersion int             `json:"schema_version"`
	Checksum      string          `json:"checksum"`
	Payload       json.RawMessage `json:"payload"`
}

// payloadChecksum renders the integrity tag of payload bytes.
func payloadChecksum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// EncodeSnapshot renders a state plane as the checksummed envelope
// (newline-terminated JSON).
func EncodeSnapshot(p StatePlane) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("server: snapshot encode: %w", err)
	}
	env := snapshotEnvelope{
		Format:        snapshotFormat,
		SchemaVersion: SnapshotSchemaVersion,
		Checksum:      payloadChecksum(payload),
		Payload:       payload,
	}
	out, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("server: snapshot encode: %w", err)
	}
	return append(out, '\n'), nil
}

// DecodeSnapshot parses and verifies a snapshot envelope. Every
// failure mode — malformed JSON, unknown envelope fields, wrong
// format, future schema, checksum mismatch, invalid payload — is an
// error; no partially-valid state is ever returned.
func DecodeSnapshot(data []byte) (StatePlane, error) {
	var env snapshotEnvelope
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return StatePlane{}, fmt.Errorf("server: snapshot decode: %w", err)
	}
	if err := trailingJSON(dec); err != nil {
		return StatePlane{}, fmt.Errorf("server: snapshot decode: %w", err)
	}
	if env.Format != snapshotFormat {
		return StatePlane{}, fmt.Errorf("server: snapshot decode: format %q is not %q", env.Format, snapshotFormat)
	}
	if env.SchemaVersion < 1 || env.SchemaVersion > SnapshotSchemaVersion {
		return StatePlane{}, fmt.Errorf("server: snapshot decode: schema version %d not supported (max %d)", env.SchemaVersion, SnapshotSchemaVersion)
	}
	if len(env.Payload) == 0 {
		return StatePlane{}, fmt.Errorf("server: snapshot decode: empty payload")
	}
	if got := payloadChecksum(env.Payload); got != env.Checksum {
		return StatePlane{}, fmt.Errorf("server: snapshot decode: checksum mismatch (envelope %q, payload %q)", env.Checksum, got)
	}
	var p StatePlane
	pdec := json.NewDecoder(bytes.NewReader(env.Payload))
	pdec.DisallowUnknownFields()
	if err := pdec.Decode(&p); err != nil {
		return StatePlane{}, fmt.Errorf("server: snapshot decode: payload: %w", err)
	}
	if err := p.Validate(); err != nil {
		return StatePlane{}, err
	}
	return p, nil
}

// StatePlane captures the server's current state plane: every area's
// statistics, version, and observation stream. Each area's view and
// tracker are read together under its observer lock, so the capture is
// consistent per area (the unit of restore) without stopping the
// world.
func (s *Server) StatePlane() StatePlane {
	slots := s.cache.slots
	p := StatePlane{
		TakenUnixMS: time.Now().UnixMilli(),
		Areas:       make([]AreaSnapshot, len(slots)),
	}
	for i := range slots {
		sl := &slots[i]
		sl.obs.mu.Lock()
		rec := sl.view.Load().rec
		p.Areas[i] = AreaSnapshot{AreaState: rec.state, Version: rec.version, Tracker: sl.obs.state(rec.state.B)}
		sl.obs.mu.Unlock()
	}
	if st := s.ledger.State(); !st.Empty() {
		p.Ledger = &st
	}
	return p
}

// restoreState applies a validated state plane to the live server:
// the strategy cache publishes per area (all-or-nothing validation first)
// and each area's observation stream is rebuilt from its tracker
// state. Areas absent from the snapshot keep their current state.
func (s *Server) restoreState(p StatePlane) error {
	if err := s.cache.Restore(p.Areas); err != nil {
		return err
	}
	if err := s.restoreTrackers(p); err != nil {
		return err
	}
	// The ledger resumes where the donor left off; a snapshot without a
	// ledger section resets it (the donor had nothing pending and
	// nothing accumulated).
	var lst ledger.State
	if p.Ledger != nil {
		lst = *p.Ledger
	}
	if err := s.ledger.Restore(lst); err != nil {
		return fmt.Errorf("server: restore: %w", err)
	}
	return nil
}

// restoreTrackers rebuilds the observation streams from a snapshot.
// The cache restore has already published the snapshot's (B, mu, q),
// so each tracker is rebuilt at its area's restored break-even. A zero
// tracker state is a stream not yet started and restores as a nil
// tracker, built on the area's next observation.
func (s *Server) restoreTrackers(p StatePlane) error {
	for _, a := range p.Areas {
		sl, ok := s.cache.slot(a.ID)
		if !ok {
			continue
		}
		var tr *adaptive.Tracker
		if a.Tracker != (adaptive.TrackerState{}) {
			var err error
			if tr, err = adaptive.NewTracker(s.retune.streamConfig(a.B)); err != nil {
				return fmt.Errorf("server: restore: area %s: %w", a.ID, err)
			}
			if err := tr.RestoreState(a.Tracker); err != nil {
				return fmt.Errorf("server: restore: area %s: %w", a.ID, err)
			}
		}
		sl.obs.mu.Lock()
		sl.obs.tr = tr
		sl.obs.mu.Unlock()
	}
	return nil
}

// SnapshotRestoreResponse reports a completed live restore.
type SnapshotRestoreResponse struct {
	// Restored counts the areas whose state was replaced.
	Restored int `json:"restored"`
	// SchemaVersion echoes the accepted snapshot's schema.
	SchemaVersion int `json:"schema_version"`
}

// handleSnapshotGet serves GET /v1/snapshot: the checksummed state
// plane of the running daemon.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	data, err := EncodeSnapshot(s.StatePlane())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", "encode snapshot: "+err.Error())
		return
	}
	s.rec.Add("snapshot_saves_total", 1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleSnapshotRestore serves POST /v1/snapshot: a live restore of a
// previously captured state plane. The body is the envelope exactly as
// GET /v1/snapshot produced it; any integrity or validation failure
// rejects the whole restore with serving state untouched.
func (s *Server) handleSnapshotRestore(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large", "read snapshot: "+err.Error())
		return
	}
	p, err := DecodeSnapshot(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_snapshot", err.Error())
		return
	}
	if err := s.restoreState(p); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "bad_snapshot", err.Error())
		return
	}
	s.rec.Add("snapshot_restores_total", 1)
	writeJSON(w, http.StatusOK, SnapshotRestoreResponse{
		Restored:      len(p.Areas),
		SchemaVersion: SnapshotSchemaVersion,
	})
}
