package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Replication protocol messages. A primary streams sealed persist
// groups to its replicas over the same framed transport as the client
// protocol; replicas answer with their durable frontier. Every message
// is one frame whose payload starts with a kind byte, so a single
// DecodeRepl entry point covers the whole stream (and a single fuzz
// target, FuzzDecodeReplFrame, covers its defensive decoding).
//
// Handshake: the primary opens with ReplHello (magic, protocol
// version, primary epoch); the replica answers ReplHelloAck carrying
// its durable frontier, and the primary resumes the stream from the
// first group beyond it (catch-up). Steady state: ReplGroup frames in
// transaction-ID order, ReplAck frames whenever the replica's durable
// frontier advances.
//
// A ReplGroup payload is the group's serialized redo entries in
// redolog.AppendEntries' run encoding — per contiguous run one header
// word addr|(n-1)<<48 then n value words, the same bytes the primary's
// persistent log holds — optionally lz4 block-compressed.
// PayloadCRC is the CRC-32C of the UNCOMPRESSED entry bytes: the frame
// CRC already guards the wire bytes, so this second checksum pins the
// decompression output — a corrupt compressed stream that still frames
// cleanly cannot smuggle wrong entries into a replica's log.

// ReplKind discriminates replication messages.
type ReplKind uint8

// Replication message kinds.
const (
	ReplHello ReplKind = iota + 1
	ReplHelloAck
	ReplGroup
	ReplAck
	replKindMax = ReplAck
)

// String returns the protocol name of the kind.
func (k ReplKind) String() string {
	switch k {
	case ReplHello:
		return "HELLO"
	case ReplHelloAck:
		return "HELLO_ACK"
	case ReplGroup:
		return "GROUP"
	case ReplAck:
		return "ACK"
	}
	return fmt.Sprintf("ReplKind(%d)", uint8(k))
}

// ReplMagic identifies the replication stream; a replica refuses a
// connection whose hello carries anything else (e.g. a client that
// dialed the replication port by mistake).
const ReplMagic = 0x4455_4445_5245_504c // "DUDEREPL"

// ReplVersion is the replication protocol version. Version 2 enriched
// ReplAck with the acked group's tid range and the replica's measured
// ingest (fence) duration, feeding the primary's cross-node critical-path
// decomposition. Version 3 run-encoded the ReplGroup payload (see
// above); a version-2 peer would mis-read it as (addr, val) pairs. Both
// ends of a stream must speak the same version — the hello handshake
// rejects a mismatch by name before any group flows.
const ReplVersion = 3

const replGroupFlagCompressed = 1 << 0

// MaxReplGroupPayload is the largest group payload, raw or compressed,
// one REPL frame carries: the frame's MaxPayload less room for the
// group message's own fields. A primary seals its groups small enough
// that their worst-case encoding fits it.
const MaxReplGroupPayload = MaxPayload - 64

// ReplMsg is one decoded replication message. Fields beyond Kind are
// populated per kind: Epoch for ReplHello; Frontier for ReplHelloAck
// and ReplAck; MinTid/MaxTid/Compressed/RawLen/PayloadCRC/Payload for
// ReplGroup.
type ReplMsg struct {
	Kind ReplKind
	// Epoch is the primary's log epoch (its durable frontier at boot):
	// a replica whose frontier is beyond the primary's history refuses
	// the stream instead of silently diverging.
	Epoch uint64
	// Frontier is the replica's durable transaction ID: every shipped
	// group at or below it is fenced into the replica's log.
	Frontier uint64
	// MinTid and MaxTid delimit the group's dense transaction-ID range.
	// On a ReplAck they name the group this ack fenced (zero when the
	// ack carries no new group — a catch-up duplicate re-ack).
	MinTid, MaxTid uint64
	// IngestNanos is the replica's measured ingest duration for the
	// acked group — its local log append plus persist barrier — in
	// nanoseconds on the replica's clock (ReplAck only). The primary
	// cannot compare replica timestamps against its own clock, but a
	// duration is clock-free: the critical-path pass anchors the
	// replica's fence span at the ack's arrival time and extends it
	// backward by this much.
	IngestNanos int64
	// Compressed marks Payload as lz4 block-compressed.
	Compressed bool
	// RawLen is the uncompressed payload length in bytes (== len(Payload)
	// when not compressed).
	RawLen uint32
	// PayloadCRC is the CRC-32C of the uncompressed payload.
	PayloadCRC uint32
	// Payload is the (possibly compressed) serialized redo entries. It
	// aliases the decode buffer; retain requires a copy.
	Payload []byte
}

// ReplPayloadCRC computes the checksum stored in ReplMsg.PayloadCRC
// (CRC-32C over the uncompressed entry bytes).
func ReplPayloadCRC(raw []byte) uint32 {
	return crc32.Checksum(raw, castagnoli)
}

// AppendReplHello appends an encoded hello to dst.
func AppendReplHello(dst []byte, epoch uint64) []byte {
	dst = append(dst, byte(ReplHello))
	dst = binary.LittleEndian.AppendUint64(dst, ReplMagic)
	dst = append(dst, ReplVersion)
	return binary.LittleEndian.AppendUint64(dst, epoch)
}

// AppendReplHelloAck appends an encoded hello acknowledgment to dst.
func AppendReplHelloAck(dst []byte, frontier uint64) []byte {
	dst = append(dst, byte(ReplHelloAck))
	return binary.LittleEndian.AppendUint64(dst, frontier)
}

// AppendReplAck appends an encoded frontier acknowledgment to dst.
// minTid/maxTid name the group this ack fenced (pass zeros for a pure
// frontier re-ack, e.g. a catch-up duplicate) and ingestNanos is the
// replica's measured append+fence duration for it.
func AppendReplAck(dst []byte, frontier, minTid, maxTid uint64, ingestNanos int64) []byte {
	dst = append(dst, byte(ReplAck))
	dst = binary.LittleEndian.AppendUint64(dst, frontier)
	dst = binary.LittleEndian.AppendUint64(dst, minTid)
	dst = binary.LittleEndian.AppendUint64(dst, maxTid)
	return binary.LittleEndian.AppendUint64(dst, uint64(ingestNanos))
}

// AppendReplGroup appends an encoded group message to dst. payload is
// the wire payload (compressed when compressed is true), rawLen the
// uncompressed length, and crc the CRC-32C of the uncompressed bytes.
func AppendReplGroup(dst []byte, minTid, maxTid uint64, payload []byte, compressed bool, rawLen, crc uint32) ([]byte, error) {
	if len(payload) > MaxReplGroupPayload {
		return dst, fmt.Errorf("wire: repl group payload is %d bytes (max %d)", len(payload), MaxReplGroupPayload)
	}
	dst = append(dst, byte(ReplGroup))
	dst = binary.LittleEndian.AppendUint64(dst, minTid)
	dst = binary.LittleEndian.AppendUint64(dst, maxTid)
	var flags byte
	if compressed {
		flags |= replGroupFlagCompressed
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, rawLen)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...), nil
}

// DecodeRepl parses one replication message payload. Byte slices in
// the result alias the payload. Decoding is defensive: arbitrary input
// can fail, never panic or over-allocate (FuzzDecodeReplFrame).
func DecodeRepl(payload []byte) (ReplMsg, error) {
	r := reader{payload}
	var m ReplMsg
	k, err := r.u8()
	if err != nil {
		return m, err
	}
	m.Kind = ReplKind(k)
	switch m.Kind {
	case ReplHello:
		magic, err := r.u64()
		if err != nil {
			return m, err
		}
		if magic != ReplMagic {
			return m, fmt.Errorf("wire: repl hello magic %#x (want %#x)", magic, uint64(ReplMagic))
		}
		ver, err := r.u8()
		if err != nil {
			return m, err
		}
		if ver != ReplVersion {
			return m, fmt.Errorf("wire: repl protocol version %d (want %d)", ver, ReplVersion)
		}
		if m.Epoch, err = r.u64(); err != nil {
			return m, err
		}
	case ReplHelloAck:
		if m.Frontier, err = r.u64(); err != nil {
			return m, err
		}
	case ReplAck:
		if m.Frontier, err = r.u64(); err != nil {
			return m, err
		}
		if m.MinTid, err = r.u64(); err != nil {
			return m, err
		}
		if m.MaxTid, err = r.u64(); err != nil {
			return m, err
		}
		// Zero range = pure frontier re-ack; a named group must be a
		// valid range the frontier covers.
		if m.MinTid == 0 != (m.MaxTid == 0) || m.MaxTid < m.MinTid {
			return m, fmt.Errorf("wire: repl ack group range [%d,%d]", m.MinTid, m.MaxTid)
		}
		ingest, err := r.u64()
		if err != nil {
			return m, err
		}
		if ingest > 1<<62 {
			return m, fmt.Errorf("wire: repl ack ingest duration overflows")
		}
		m.IngestNanos = int64(ingest)
	case ReplGroup:
		if m.MinTid, err = r.u64(); err != nil {
			return m, err
		}
		if m.MaxTid, err = r.u64(); err != nil {
			return m, err
		}
		if m.MinTid == 0 || m.MaxTid < m.MinTid {
			return m, fmt.Errorf("wire: repl group tid range [%d,%d]", m.MinTid, m.MaxTid)
		}
		flags, err := r.u8()
		if err != nil {
			return m, err
		}
		if flags&^byte(replGroupFlagCompressed) != 0 {
			return m, fmt.Errorf("wire: unknown repl group flags %#x", flags)
		}
		m.Compressed = flags&replGroupFlagCompressed != 0
		rawLen, err := r.u32()
		if err != nil {
			return m, err
		}
		if rawLen > MaxPayload {
			return m, fmt.Errorf("wire: repl group raw length %d exceeds MaxPayload", rawLen)
		}
		m.RawLen = rawLen
		if m.PayloadCRC, err = r.u32(); err != nil {
			return m, err
		}
		if m.Payload, err = r.bytes(); err != nil {
			return m, err
		}
		if !m.Compressed && uint32(len(m.Payload)) != m.RawLen {
			return m, fmt.Errorf("wire: uncompressed repl group payload %d bytes, raw length says %d", len(m.Payload), m.RawLen)
		}
	default:
		return m, fmt.Errorf("wire: unknown repl message kind %d", k)
	}
	if len(r.b) != 0 {
		return m, fmt.Errorf("wire: %d trailing bytes after repl %s", len(r.b), m.Kind)
	}
	return m, nil
}
