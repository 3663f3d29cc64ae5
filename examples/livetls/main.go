// Livetls: demonstrates on *genuine* TLS (Go's crypto/tls, real AES-GCM
// ciphertext over a loopback TCP socket) that the record lengths the
// White Mirror attack keys on are visible to a passive observer.
//
// A CDN server from the reproduction runs behind real TLS; an interactive
// client connects through a transparent tap proxy that forwards bytes
// untouched while parsing only the TLS record headers. The client plays
// a two-choice session (type-1 at each question, type-2 on the
// non-default pick); the tap never sees a key yet cleanly separates the
// two report types by ciphertext record length.
package main

import (
	"bufio"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/big"
	"net"
	"sync"
	"time"

	"repro/internal/cdn"
	"repro/internal/media"
	"repro/internal/profiles"
	"repro/internal/script"
	"repro/internal/statejson"
	"repro/internal/tlsrec"
	"repro/internal/wire"
)

func main() {
	g := script.TinyScript()
	enc := media.Encode(g, media.DefaultLadder, 7)
	server := cdn.New(g, enc)

	// Real TLS listener with a throwaway self-signed certificate.
	cert, err := selfSignedCert()
	if err != nil {
		log.Fatal(err)
	}
	tlsLn, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
		MaxVersion:   tls.VersionTLS12, // visible content types, classic record layer
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tlsLn.Close()
	go server.Serve(tlsLn)

	// Transparent tap proxy: client -> tap -> TLS server.
	tap := newTap()
	tapLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer tapLn.Close()
	go tap.serve(tapLn, tlsLn.Addr().String())

	// The "browser": a real TLS client speaking the CDN socket protocol.
	conn, err := tls.Dial("tcp", tapLn.Addr().String(), &tls.Config{
		InsecureSkipVerify: true, // self-signed demo cert
		MinVersion:         tls.VersionTLS12,
		MaxVersion:         tls.VersionTLS12,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	rw := bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))

	prof := profiles.Lookup(profiles.Fig2Ubuntu)
	builder := statejson.NewBuilder(prof, "livetls", "live-1", wire.NewRNG(9))

	// Play the two-choice session: fetch Segment 0's first chunk, hit Q1
	// (type-1, take default), fetch S1, hit Q2 (type-1 + type-2: take the
	// alternative), fetch S2'.
	fetchChunk(rw, "Seg0", 0)
	sendReport(rw, builder, statejson.Type1, "Seg0", "")
	fetchChunk(rw, "S1", 0)
	sendReport(rw, builder, statejson.Type1, "Q2seg", "")
	sendReport(rw, builder, statejson.Type2, "Q2seg", "S2'")
	fetchChunk(rw, "S2'", 0)
	conn.Close()
	time.Sleep(100 * time.Millisecond) // let the tap drain

	// What the passive observer saw. The demo socket protocol prepends a
	// 5-byte frame header (kind + length) to every message — part of the
	// plaintext, so the calibrated bands shift by exactly 5 bytes (in a
	// browser the analogous HTTP framing is inside the calibrated sizes).
	const frameHeader = 5
	lengths := tap.clientAppRecordLengths()
	fmt.Println("client->server TLS application records observed on the wire:")
	lo1, hi1 := prof.Type1RecordRange()
	lo2, hi2 := prof.Type2RecordRange()
	lo1, hi1 = lo1+frameHeader, hi1+frameHeader
	lo2, hi2 = lo2+frameHeader, hi2+frameHeader
	var n1, n2 int
	for i, l := range lengths {
		class := "other (chunk request)"
		// Real TLS 1.2 AES-GCM has the same 8+16-byte expansion the
		// simulator models, so the calibrated bands carry over directly.
		switch {
		case l >= lo1 && l <= hi1:
			class = "TYPE-1 state report"
			n1++
		case l >= lo2 && l <= hi2:
			class = "TYPE-2 state report"
			n2++
		}
		fmt.Printf("  record %2d: %4d bytes  -> %s\n", i+1, l, class)
	}
	fmt.Printf("\ntap classified %d type-1 and %d type-2 reports (expected 2 and 1)\n", n1, n2)
	if n1 == 2 && n2 == 1 {
		fmt.Println("=> the viewer took the default at Q1 and the NON-DEFAULT at Q2,")
		fmt.Println("   recovered from genuine ciphertext without any key material.")
	}
}

// --- tap proxy ----------------------------------------------------------------

// tap forwards TCP bytes bidirectionally and feeds the client->server
// direction through a header-only TLS record scanner.
type tap struct {
	mu sync.Mutex
	sc *tlsrec.RecordScanner
}

func newTap() *tap {
	return &tap{sc: tlsrec.NewRecordScanner()}
}

func (t *tap) serve(ln net.Listener, upstream string) {
	for {
		cli, err := ln.Accept()
		if err != nil {
			return
		}
		srv, err := net.Dial("tcp", upstream)
		if err != nil {
			cli.Close()
			return
		}
		go t.pipe(cli, srv, true)
		go t.pipe(srv, cli, false)
	}
}

// pipe copies src->dst; the client->server direction is parsed.
func (t *tap) pipe(src, dst net.Conn, parse bool) {
	defer dst.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if parse {
				t.mu.Lock()
				t.sc.Feed(time.Now(), buf[:n])
				t.mu.Unlock()
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func (t *tap) clientAppRecordLengths() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int
	for _, r := range t.sc.Records() {
		if r.Type == tlsrec.ContentApplicationData {
			out = append(out, r.Length)
		}
	}
	return out
}

// --- client protocol helpers ---------------------------------------------------

func fetchChunk(rw *bufio.ReadWriter, segment string, index int) {
	req, _ := json.Marshal(map[string]any{"segment": segment, "index": index, "quality": 0})
	sockSend(rw, cdn.SockChunk, req)
}

func sendReport(rw *bufio.ReadWriter, b *statejson.Builder, kind statejson.Kind,
	cp, sel script.SegmentID) {
	var body []byte
	var err error
	if kind == statejson.Type1 {
		body, _, err = b.Type1(cp, 1000)
	} else {
		body, _, err = b.Type2(cp, sel, 1000)
	}
	if err != nil {
		log.Fatal(err)
	}
	sockSend(rw, cdn.SockReport, body)
}

func sockSend(rw *bufio.ReadWriter, kind byte, body []byte) {
	var lenBuf [4]byte
	if err := rw.WriteByte(kind); err != nil {
		log.Fatal(err)
	}
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(body)))
	rw.Write(lenBuf[:])
	rw.Write(body)
	if err := rw.Flush(); err != nil {
		log.Fatal(err)
	}
	if _, err := io.ReadFull(rw, lenBuf[:]); err != nil {
		log.Fatal(err)
	}
	resp := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(rw, resp); err != nil {
		log.Fatal(err)
	}
}

// selfSignedCert mints a throwaway ECDSA certificate for the demo server.
func selfSignedCert() (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, err
	}
	tmpl := x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "livetls.local"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:  []net.IP{net.IPv4(127, 0, 0, 1)},
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, err
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}
