package serve

import (
	"encoding/json"
	"errors"
	"math"

	"repro/dpgraph"
)

// ErrNoPairs is returned by ParsePairs for an input that contains no
// s-t pairs at all (empty or whitespace); an explicit empty JSON array
// parses to an empty slice instead. Callers attach their own context
// (stdin hint, HTTP status).
var ErrNoPairs = errors.New("no s-t pairs: want text lines \"s t\" or a JSON array")

// ParsePairs decodes a batch of s-t query pairs from text lines "s t"
// or a JSON array ([[s,t], ...] or [{"s":..,"t":..}, ...]), with the
// grammar documented in fastjson.go. It is the CLI query subcommand's
// stdin reader over the parser the HTTP batch handler uses.
func ParsePairs(data []byte) ([]dpgraph.VertexPair, error) {
	return parsePairs(nil, data)
}

// PairAnswer is one answered s-t query, the wire unit shared by the
// CLI's -json query envelope and the HTTP distance handlers.
type PairAnswer struct {
	S     int     `json:"s"`
	T     int     `json:"t"`
	Value float64 `json:"value"`
}

// MarshalJSON renders topology-disconnected pairs (±Inf, which
// encoding/json rejects as a float) as a null value with an explicit
// unreachable marker.
func (a PairAnswer) MarshalJSON() ([]byte, error) {
	if math.IsInf(a.Value, 0) {
		return json.Marshal(struct {
			S           int  `json:"s"`
			T           int  `json:"t"`
			Value       *int `json:"value"`
			Unreachable bool `json:"unreachable"`
		}{S: a.S, T: a.T, Unreachable: true})
	}
	type plain PairAnswer
	return json.Marshal(plain(a))
}

// FiniteOrNil returns &v, or nil when v is not finite — the JSON
// null+unreachable convention PairAnswer uses, usable on any released
// value that may be ±Inf (e.g. a distance on a topology-disconnected
// pair, or an unreachable entry of a single-source vector).
func FiniteOrNil(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}
