package capture

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/layers"
	"repro/internal/session"
	"repro/internal/tlsrec"
	"repro/internal/wire"
)

// renderInput is one fuzzed server direction: the record layer and
// padding policy, the MTU, the hello size and the application writes.
type renderInput struct {
	mode   uint8  // bit 0: TLS 1.3; bits 1–2: the 1.3 padding policy
	mtu    uint16 // folded into [576, 9000]
	hello  uint16 // folded into [1, 16384]
	seed   uint64 // segmentation jitter
	writes []byte // 3 bytes a write: flags (bit 0: no write mark), size
}

// serverDirection writes in's server direction through an Encryptor
// without an rng into a materializing Writer, returning the direction
// with its bytes and write marks, and its records.
func (in renderInput) serverDirection() (session.DirStream, []tlsrec.Record) {
	suite, ver := tlsrec.SuiteAESGCM128TLS12, tlsrec.VersionTLS12
	if in.mode&1 == 1 {
		suite, ver = tlsrec.Suite13Equivalent(suite), tlsrec.VersionTLS13
	}
	enc := tlsrec.NewEncryptor(suite, tlsrec.DefaultSplitter, ver, nil)
	enc.Server = true
	enc.SetPadding([]tlsrec.PaddingPolicy{
		{}, tlsrec.PadToMultipleOf(64), tlsrec.PadToMultipleOf(4096), tlsrec.PadRandomUpTo(512),
	}[in.mode>>1&3], wire.NewRNG(in.seed))

	w := wire.NewWriter(1 << 16)
	t0 := time.Unix(1735689600, 0)
	d := session.DirStream{Writes: []session.WriteMark{{Offset: 0, Time: t0}}}
	recs := enc.HandshakeTranscript(w, t0, 1+int(in.hello)%16384)
	ws := in.writes
	for i := 0; len(ws) >= 3 && i < 64; i, ws = i+1, ws[3:] {
		ts := t0.Add(time.Duration(i+1) * time.Millisecond)
		off := int64(w.Len())
		if ws[0]&1 == 0 && off > d.Writes[len(d.Writes)-1].Offset {
			d.Writes = append(d.Writes, session.WriteMark{Offset: off, Time: ts})
		}
		n := int(binary.BigEndian.Uint16(ws[1:])) % (16384 + 1)
		recs = append(recs, enc.WriteApplicationData(w, ts, n)...)
	}
	d.Bytes = w.Bytes()
	return d, recs
}

// renderFrames segments s as addConversation does and returns each data
// frame's bytes, headers and payload together, and the next sequence
// number.
func renderFrames(t *testing.T, s *tcpStream, mss int, seed uint64) ([][]byte, uint32) {
	t.Helper()
	m := &muxer{arena: wire.NewWriter(1 << 16), ipID: 1}
	ep := DefaultEndpoints()
	key := layers.FlowKey{SrcAddr: ep.ServerAddr, DstAddr: ep.ClientAddr,
		SrcPort: ep.ServerPort, DstPort: ep.ClientPort}
	next, err := m.segmentDirection(s, key, layers.Ethernet{Src: ep.ServerMAC, Dst: ep.ClientMAC},
		7, 9, mss, wire.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	raw := m.arena.Bytes()
	out := make([][]byte, len(m.frames))
	for i, f := range m.frames {
		out[i] = append(append([]byte(nil), raw[f.start:f.end]...), f.payload...)
	}
	return out, next
}

// FuzzRenderServerRecords differentially tests the server renderer. A
// server direction written by an Encryptor without an rng (TLS 1.2, or
// TLS 1.3 under a padding policy) is segmented twice: from its
// materialized bytes, the path the client direction runs, and from its
// records, the path a session's server direction runs. Both must give
// the same frames — headers, TCP checksums and payloads — byte for byte.
func FuzzRenderServerRecords(f *testing.F) {
	write := func(mark bool, n int) []byte {
		flags := byte(1)
		if mark {
			flags = 0
		}
		return []byte{flags, byte(n >> 8), byte(n)}
	}
	cat := func(ws ...[]byte) []byte { return bytes.Join(ws, nil) }
	// TLS 1.2 at MTU 1500: the ChangeCipherSpec header straddles the
	// first segment edge (hello 1453: header at 1458–1462).
	f.Add(uint8(0), uint16(1500-576), uint16(1452), uint64(1), cat(write(true, 700), write(false, 7000)))
	// TLS 1.2 at MTU 1500: ChangeCipherSpec's body is the second
	// segment's first byte (hello 1450: body at 1460).
	f.Add(uint8(0), uint16(1500-576), uint16(1449), uint64(1), cat(write(true, 16384), write(true, 1)))
	// TLS 1.3 padded to 4096: a full 16 KiB write becomes one record of
	// tlsrec.MaxRecordPayload (18,432) bytes, followed by unmarked ones.
	f.Add(uint8(1|2<<1), uint16(1500-576), uint16(3699), uint64(2),
		cat(write(true, 16384), write(false, 16384), write(false, 5)))
	// The MTU extremes, TLS 1.3 padded to 64 and to a random pad.
	f.Add(uint8(1|1<<1), uint16(0), uint16(3699), uint64(3), cat(write(true, 9000), write(false, 300), write(true, 0)))
	f.Add(uint8(1|3<<1), uint16(9000-576), uint16(3699), uint64(4), cat(write(true, 13000), write(false, 16384)))
	f.Fuzz(func(t *testing.T, mode uint8, mtu, hello uint16, seed uint64, writes []byte) {
		in := renderInput{mode: mode, mtu: mtu, hello: hello, seed: seed, writes: writes}
		d, recs := in.serverDirection()
		mss := 576 + int(in.mtu)%(9000-576+1) - 40
		fromBytes, endBytes := renderFrames(t, &tcpStream{DirStream: d}, mss, seed)
		d.Bytes = nil
		fromRecs, endRecs := renderFrames(t, &tcpStream{DirStream: d, recs: recs}, mss, seed)
		if len(fromRecs) != len(fromBytes) || endRecs != endBytes {
			t.Fatalf("records render %d frames ending at seq %d, bytes %d ending at %d",
				len(fromRecs), endRecs, len(fromBytes), endBytes)
		}
		for i := range fromBytes {
			if !bytes.Equal(fromRecs[i], fromBytes[i]) {
				j := 0
				for j < min(len(fromRecs[i]), len(fromBytes[i])) && fromRecs[i][j] == fromBytes[i][j] {
					j++
				}
				t.Fatalf("frame %d of %d (%d bytes from records, %d from bytes) differs from byte %d",
					i, len(fromBytes), len(fromRecs[i]), len(fromBytes[i]), j)
			}
		}
	})
}
