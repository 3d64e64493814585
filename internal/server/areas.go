package server

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"idlereduce/internal/fleet"
	"idlereduce/internal/skirental"
)

// DefaultAreaStates derives the serving configuration of the three
// paper areas (California, Chicago, Atlanta) by measuring the
// constrained statistics of each area's stop-length distribution at
// break-even interval b. This is what idled serves when no -areas
// config file is given.
func DefaultAreaStates(b float64) ([]AreaState, error) {
	areas := fleet.DefaultAreas()
	out := make([]AreaState, 0, len(areas))
	for _, a := range areas {
		s := skirental.StatsOf(a.StopLengthDistribution(), b)
		state := AreaState{ID: strings.ToLower(a.Name), B: b, Mu: s.MuBMinus, Q: s.QBPlus}
		if err := state.Validate(); err != nil {
			return nil, err
		}
		out = append(out, state)
	}
	return out, nil
}

// SyntheticAreaStates fabricates n deterministic areas at break-even
// interval b for scale testing (the 100k-area loadtest). IDs are
// "syn-000000"... and the (mu, q) pairs cycle through feasible
// combinations, so strategy derivation exercises every vertex choice
// without any randomness. The same (n, b) always yields the same set.
func SyntheticAreaStates(n int, b float64) []AreaState {
	out := make([]AreaState, n)
	for i := range out {
		// q in [0.02, 0.42), mu in a band safely inside [0, B(1-q)].
		q := 0.02 + 0.05*float64(i%8)
		mu := b * (1 - q) * (0.15 + 0.07*float64(i%11))
		out[i] = AreaState{ID: fmt.Sprintf("syn-%06d", i), B: b, Mu: mu, Q: q}
	}
	return out
}

// ReadAreaStates parses an -areas config file: a JSON array of
// {"id", "b", "mu", "q"} objects. Every entry is validated; unknown
// fields and data after the array are rejected so config typos fail
// loudly at boot.
func ReadAreaStates(r io.Reader) ([]AreaState, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var areas []AreaState
	if err := dec.Decode(&areas); err != nil {
		return nil, fmt.Errorf("server: decode areas config: %w", err)
	}
	if err := trailingJSON(dec); err != nil {
		return nil, fmt.Errorf("server: decode areas config: %w", err)
	}
	if len(areas) == 0 {
		return nil, fmt.Errorf("server: areas config is empty")
	}
	for _, a := range areas {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	return areas, nil
}

// WriteAreaStates writes the states as an editable JSON config
// (the idled -areas-template output).
func WriteAreaStates(w io.Writer, areas []AreaState) error {
	data, err := json.MarshalIndent(areas, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
