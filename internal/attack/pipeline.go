// Package attack implements the paper's contribution: recovering the
// choices a viewer made in an interactive movie from passively captured
// encrypted traffic, using client-side SSL record lengths as the
// side-channel.
//
// The pipeline is capture → TCP reassembly → TLS record extraction →
// record-length classification (type-1 / type-2 / other) → choice-sequence
// decoding, optionally constrained by the title's branching script graph.
package attack

import (
	"errors"

	"repro/internal/tlsrec"
)

// Observation is the attacker's view of one TLS connection: the client
// and server record sequences with lengths and timestamps, and nothing
// else (bodies are opaque ciphertext).
type Observation struct {
	// ClientRecords are the client→server records in stream order.
	ClientRecords []tlsrec.Record
	// ServerRecords are the server→client records in stream order.
	ServerRecords []tlsrec.Record
}

// ErrNoTLSConversation is returned when a capture contains no parseable
// TLS conversation.
var ErrNoTLSConversation = errors.New("attack: no TLS conversation in capture")

// ApplicationRecords filters an observation's client records down to
// application-data records — the candidates for state-report detection.
func (o *Observation) ApplicationRecords() []tlsrec.Record {
	var out []tlsrec.Record
	for _, r := range o.ClientRecords {
		if r.Type == tlsrec.ContentApplicationData {
			out = append(out, r)
		}
	}
	return out
}
