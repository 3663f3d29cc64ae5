package whitemirror

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/quicrec"
	"repro/internal/session"
	"repro/internal/tlsrec"
)

// TestSimulateTracesPinned pins what Simulate records, lean and full,
// across revisions: every labeled client write (label, time, plaintext
// length and its records or datagrams), the server records, both
// directions' write marks and datagram frames, and the client byte
// stream. TestRenderBytesPinned covers full-fidelity captures only;
// training simulates lean traces, and the report-policy and
// random-padding wires shape what the client writes. Times enter the
// digest as UnixNano, never formatted, so the machine's zone cannot move
// it. A deliberate change to the synthesis updates these values on
// purpose.
func TestSimulateTracesPinned(t *testing.T) {
	// Lean drops only a QUIC session's server datagram bytes, which the
	// digest leaves out, so lean and full traces share one digest.
	cases := []struct {
		wire string
		seed uint64
		sha  string
	}{
		{"tls1.2", 1, "15b9897c2465d0b912981643cbe8f3a209540cea3bf188826dbe5da6352cf58c"},
		{"tls1.2", 21, "cf49f06cf2a302eadb3ae8e8c634ba64b4c8ada04434fdfafab9ae3088e1cb07"},
		{"tls1.3+pad-random-32", 1, "086ba6eef0a6acf1528765b2f6de127b9af8381927b4e140948725e068746954"},
		{"tls1.3+pad-random-32", 21, "aa71d4782d0f85f4a4e11285962e53c3895b47425f253f457d100d338d71d7ed"},
		{"quic+pad-random-1350+2", 1, "503af93c7492936006b4864793a16b89ffcf35aaa6226ae2cd707faee86eb38a"},
		{"quic+pad-random-1350+2", 21, "81a48bb8ed6e856db9fef798f50bab50766ced4d731a192e95264b852e3037a1"},
		{"tls1.2+reports-split-1200", 1, "bf4d84151c50dc673be6c08b0aab9e1f7d92c209f49fea8d1bac41482b5279f0"},
		{"tls1.2+reports-split-1200", 21, "82608d36bb848884beeeb92b7fec017190cc0ac1a92515cbfe79c8668fe00059"},
	}
	for _, tc := range cases {
		w, err := ParseWire(tc.wire)
		if err != nil {
			t.Fatal(err)
		}
		for _, lean := range []bool{true, false} {
			tr, err := Simulate(SessionOptions{Seed: tc.seed, Wire: w, Lean: lean})
			if err != nil {
				t.Fatalf("%s seed %d lean=%v: %v", tc.wire, tc.seed, lean, err)
			}
			if got := traceDigest(tr); got != tc.sha {
				t.Errorf("%s seed %d lean=%v: trace digest %s, pinned %s", tc.wire, tc.seed, lean, got, tc.sha)
			}
		}
	}

	// The band edges TrainAttacker learns from its lean profiling
	// sessions, for two conditions under each transport.
	h := sha256.New()
	for _, label := range []string{"tls1.2", "quic"} {
		w, err := ParseWire(label)
		if err != nil {
			t.Fatal(err)
		}
		sessions := 3
		if w.Transport == quicrec.TransportQUIC {
			sessions = 10 // composite QUIC bands need the coverage
		}
		for _, cond := range []Condition{ConditionUbuntu, ConditionWindows} {
			atk, err := TrainAttacker(TrainingOptions{Condition: cond, Sessions: sessions, Seed: 22, Wire: w})
			if err != nil {
				t.Fatalf("%s/%v: %v", label, cond, err)
			}
			fmt.Fprintf(h, "%s/%v: %#v\n", label, cond, atk.Classifier)
		}
	}
	if got, pin := hex.EncodeToString(h.Sum(nil)), "53428e4cfa3df6dfcb4ed992d59e1b49cc78dc236700d7177a54bb32f156b5cc"; got != pin {
		t.Errorf("trained bands digest %s, pinned %s", got, pin)
	}
}

// traceDigest hashes a trace's wire descriptors and client bytes.
func traceDigest(tr *Trace) string {
	h := sha256.New()
	num := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	at := func(ts time.Time) int64 { return ts.UnixNano() }
	records := func(rs []tlsrec.Record) {
		num(int64(len(rs)))
		for _, r := range rs {
			num(int64(r.Type), int64(r.Version), int64(r.Length), at(r.Time), r.StreamOffset)
		}
	}
	datagrams := func(ds []quicrec.Datagram) {
		num(int64(len(ds)))
		for _, d := range ds {
			long := int64(0)
			if d.Long {
				long = 1
			}
			num(int64(d.Size), int64(d.Packets), long, at(d.Time), d.Offset)
		}
	}
	dir := func(d session.DirStream) {
		num(int64(len(d.Writes)))
		for _, m := range d.Writes {
			num(m.Offset, at(m.Time))
		}
		datagrams(d.Datagrams)
	}
	num(int64(len(tr.ClientWrites)))
	for _, w := range tr.ClientWrites {
		num(int64(w.Label), at(w.Time), int64(w.Plain))
		records(w.Records)
		datagrams(w.Datagrams)
	}
	records(tr.ServerRecords)
	dir(tr.ClientToServer)
	dir(tr.ServerToClient)
	num(int64(len(tr.ClientToServer.Bytes)))
	h.Write(tr.ClientToServer.Bytes)
	return hex.EncodeToString(h.Sum(nil))
}
