package wire

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"dudetm/internal/lz4"
)

func TestReplControlRoundTrip(t *testing.T) {
	hello, err := DecodeRepl(AppendReplHello(nil, 42))
	if err != nil {
		t.Fatal(err)
	}
	if hello.Kind != ReplHello || hello.Epoch != 42 {
		t.Fatalf("hello: %+v", hello)
	}
	hack, err := DecodeRepl(AppendReplHelloAck(nil, 7))
	if err != nil {
		t.Fatal(err)
	}
	if hack.Kind != ReplHelloAck || hack.Frontier != 7 {
		t.Fatalf("hello ack: %+v", hack)
	}
	ack, err := DecodeRepl(AppendReplAck(nil, 99, 98, 99, 12345))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Kind != ReplAck || ack.Frontier != 99 || ack.MinTid != 98 || ack.MaxTid != 99 || ack.IngestNanos != 12345 {
		t.Fatalf("ack: %+v", ack)
	}
	// Pure frontier re-ack: zero group range, zero ingest duration.
	ack, err = DecodeRepl(AppendReplAck(nil, 50, 0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if ack.MinTid != 0 || ack.MaxTid != 0 || ack.IngestNanos != 0 {
		t.Fatalf("re-ack: %+v", ack)
	}
	// Half-zero or inverted ack ranges are rejected.
	for _, bad := range [][2]uint64{{0, 3}, {3, 0}, {9, 3}} {
		if _, err := DecodeRepl(AppendReplAck(nil, 99, bad[0], bad[1], 0)); err == nil {
			t.Fatalf("decoded ack with group range [%d,%d]", bad[0], bad[1])
		}
	}
}

func TestReplGroupRoundTrip(t *testing.T) {
	raw := bytes.Repeat([]byte{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88}, 64)
	crc := ReplPayloadCRC(raw)

	// Uncompressed.
	enc, err := AppendReplGroup(nil, 10, 12, raw, false, uint32(len(raw)), crc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeRepl(enc)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != ReplGroup || m.MinTid != 10 || m.MaxTid != 12 || m.Compressed ||
		m.RawLen != uint32(len(raw)) || m.PayloadCRC != crc || !bytes.Equal(m.Payload, raw) {
		t.Fatalf("group: %+v", m)
	}

	// Compressed: the decompressed bytes must match the CRC.
	comp := lz4.Compress(nil, raw)
	if len(comp) >= len(raw) {
		t.Fatalf("repetitive payload did not compress (%d -> %d)", len(raw), len(comp))
	}
	enc, err = AppendReplGroup(nil, 13, 13, comp, true, uint32(len(raw)), crc)
	if err != nil {
		t.Fatal(err)
	}
	m, err = DecodeRepl(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Compressed || m.RawLen != uint32(len(raw)) {
		t.Fatalf("compressed group: %+v", m)
	}
	dec, err := lz4.Decompress(m.Payload, int(m.RawLen))
	if err != nil {
		t.Fatal(err)
	}
	if ReplPayloadCRC(dec) != m.PayloadCRC {
		t.Fatal("decompressed payload fails its CRC")
	}
	if !bytes.Equal(dec, raw) {
		t.Fatal("decompressed payload differs from the original")
	}
}

// TestReplDecodeRejectsGarbage holds the decoder to its defensive
// contract across the interesting corruption classes: truncation at
// every boundary, wrong magic/version, inverted tid ranges, bad flags,
// hostile lengths, trailing bytes.
func TestReplDecodeRejectsGarbage(t *testing.T) {
	raw := bytes.Repeat([]byte{7}, 32)
	group, err := AppendReplGroup(nil, 5, 6, raw, false, uint32(len(raw)), ReplPayloadCRC(raw))
	if err != nil {
		t.Fatal(err)
	}
	// Torn messages: every proper prefix of every message kind fails.
	for _, msg := range [][]byte{
		AppendReplHello(nil, 1),
		AppendReplHelloAck(nil, 2),
		AppendReplAck(nil, 3, 2, 3, 777),
		group,
	} {
		for i := 0; i < len(msg); i++ {
			if _, err := DecodeRepl(msg[:i]); err == nil {
				t.Fatalf("decoded torn prefix %d of %v", i, msg[:i])
			}
		}
		// Trailing garbage is rejected too.
		if _, err := DecodeRepl(append(append([]byte{}, msg...), 0)); err == nil {
			t.Fatal("decoded message with trailing byte")
		}
	}
	cases := map[string][]byte{
		"empty":        {},
		"unknown kind": {0xee},
		"bad magic": func() []byte {
			b := AppendReplHello(nil, 1)
			b[1] ^= 0xff
			return b
		}(),
		"bad version": func() []byte {
			b := AppendReplHello(nil, 1)
			b[9] = 0xfe
			return b
		}(),
		"zero min tid": func() []byte {
			b, _ := AppendReplGroup(nil, 1, 1, nil, false, 0, 0)
			copy(b[1:9], make([]byte, 8))
			return b
		}(),
		"inverted range": func() []byte {
			b := append([]byte{byte(ReplGroup)}, 9, 0, 0, 0, 0, 0, 0, 0)
			return append(b, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
		}(),
		"bad flags": func() []byte {
			b := append([]byte(nil), group...)
			b[17] |= 0x80
			return b
		}(),
		"raw len mismatch": func() []byte {
			b := append([]byte(nil), group...)
			b[18] ^= 1 // rawLen != len(payload) on an uncompressed group
			return b
		}(),
		"payload len beyond buffer": func() []byte {
			b := append([]byte(nil), group[:26]...)
			return append(b, 0xff, 0xff, 0xff, 0x7f)
		}(),
	}
	for name, b := range cases {
		if _, err := DecodeRepl(b); err == nil {
			t.Fatalf("%s: decoded garbage", name)
		}
	}
}

// TestReplGroupCRCDetectsCorruption flips bits in a framed compressed
// group and checks that one of the integrity layers (frame CRC when the
// wire bytes are torn, payload CRC after decompression) rejects it.
func TestReplGroupCRCDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	raw := make([]byte, 2048)
	for i := range raw {
		raw[i] = byte(rng.Intn(4)) // compressible
	}
	crc := ReplPayloadCRC(raw)
	comp := lz4.Compress(nil, raw)
	msg, err := AppendReplGroup(nil, 2, 4, comp, true, uint32(len(raw)), crc)
	if err != nil {
		t.Fatal(err)
	}
	frame := AppendFrame(nil, msg)
	for trial := 0; trial < 100; trial++ {
		bad := append([]byte(nil), frame...)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		payload, _, err := DecodeFrame(bad)
		if err != nil {
			continue // frame CRC caught it
		}
		m, err := DecodeRepl(payload)
		if err != nil || m.Kind != ReplGroup {
			continue // message layer caught it (or it became another kind)
		}
		dec, err := lz4.Decompress(m.Payload, int(m.RawLen))
		if err != nil {
			continue // decompressor caught it
		}
		if ReplPayloadCRC(dec) == m.PayloadCRC && !bytes.Equal(dec, raw) {
			t.Fatalf("trial %d: corruption passed every integrity layer", trial)
		}
	}
}

// FuzzDecodeReplFrame: arbitrary bytes through frame + repl decoding
// never panic; whatever decodes re-encodes to the same message; and a
// group that claims compression either decompresses to RawLen bytes or
// fails cleanly.
func FuzzDecodeReplFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, AppendReplHello(nil, 3)))
	f.Add(AppendFrame(nil, AppendReplHelloAck(nil, 17)))
	f.Add(AppendFrame(nil, AppendReplAck(nil, 123456, 123450, 123456, 98765)))
	f.Add(AppendFrame(nil, AppendReplAck(nil, 123456, 0, 0, 0)))
	raw := bytes.Repeat([]byte{0xaa, 0xbb}, 100)
	g, _ := AppendReplGroup(nil, 8, 9, raw, false, uint32(len(raw)), ReplPayloadCRC(raw))
	f.Add(AppendFrame(nil, g))
	comp := lz4.Compress(nil, raw)
	gc, _ := AppendReplGroup(nil, 10, 10, comp, true, uint32(len(raw)), ReplPayloadCRC(raw))
	f.Add(AppendFrame(nil, gc))
	// Torn and CRC-corrupted seeds.
	f.Add(AppendFrame(nil, g)[:11])
	torn := AppendFrame(nil, gc)
	torn[len(torn)-1] ^= 1
	f.Add(torn)
	f.Fuzz(func(t *testing.T, b []byte) {
		payload, _, err := DecodeFrame(b)
		if err != nil {
			return
		}
		m, err := DecodeRepl(payload)
		if err != nil {
			return
		}
		// Round-trip: re-encoding the decoded message must reproduce the
		// original payload bytes.
		var re []byte
		switch m.Kind {
		case ReplHello:
			re = AppendReplHello(nil, m.Epoch)
		case ReplHelloAck:
			re = AppendReplHelloAck(nil, m.Frontier)
		case ReplAck:
			re = AppendReplAck(nil, m.Frontier, m.MinTid, m.MaxTid, m.IngestNanos)
		case ReplGroup:
			re, err = AppendReplGroup(nil, m.MinTid, m.MaxTid, m.Payload, m.Compressed, m.RawLen, m.PayloadCRC)
			if err != nil {
				t.Fatalf("re-encode of decoded group failed: %v", err)
			}
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("re-encode mismatch for %s", m.Kind)
		}
		if m.Kind == ReplGroup && m.Compressed {
			// A hostile compressed payload must fail cleanly, never
			// produce more than RawLen bytes.
			dec, err := lz4.Decompress(m.Payload, int(m.RawLen))
			if err == nil && len(dec) != int(m.RawLen) {
				t.Fatalf("decompressed %d bytes, raw length says %d", len(dec), m.RawLen)
			}
		}
	})
}

// TestReplHelloFromOldVersionRefusedByName pins the version bump that
// came with the run-encoded group payload: a version-2 hello fails to
// decode — so the stream dies at the handshake, before any group whose
// payload this build would mis-read — and the error names both
// versions.
func TestReplHelloFromOldVersionRefusedByName(t *testing.T) {
	hello := AppendReplHello(nil, 7)
	if m, err := DecodeRepl(hello); err != nil || m.Epoch != 7 {
		t.Fatalf("current hello: %+v, %v", m, err)
	}
	hello[9] = 2 // kind byte, 8-byte magic, then the version
	_, err := DecodeRepl(hello)
	if err == nil {
		t.Fatal("version-2 hello accepted")
	}
	for _, want := range []string{"version 2", "want 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}
