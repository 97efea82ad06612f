// Wire codec: length-prefixed, CRC-checksummed frames. The framing is
// deliberately rigid — fixed magic, bounded payload, trailing CRC32 — and
// every violation is handled the same way: the frame is rejected and the
// connection dropped, which the protocol layer experiences as message
// loss. Resynchronizing a desynchronized byte stream is never attempted;
// the dialer's reconnect and the barrier's retransmission are the repair.
//
// Wire format v2: every protocol frame (state, ⊤, up) carries a group id
// so one connection per peer pair can multiplex many barrier groups, and
// the hello carries a config digest so two clusters with different peer
// lists, topologies or group sets cannot cross-connect just because a
// member id happens to match.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/tokenring"
)

// Frame layout:
//
//	magic(1) | type(1) | payload len uint16 BE (2) | payload | crc32 IEEE BE (4)
//
// The CRC covers magic through payload.
const (
	magicByte    = 0xB7
	helloVersion = 2

	headerLen  = 4
	trailerLen = 4

	// MaxPayload bounds a frame payload. An advertised length beyond it is
	// a codec error — a reader never allocates attacker-controlled sizes.
	MaxPayload = 64
)

// Frame types.
const (
	// FrameHello opens a connection: payload = version(1) | member id
	// uint32 BE | config digest uint64 BE. The acceptor verifies the
	// dialer's identity for the edge and that the digest matches its own
	// configuration (peer list, topology, group set).
	FrameHello byte = 1
	// FrameState carries the MB triple forward (dialer → acceptor):
	// payload = group uint32 BE | sn int32 BE | cp(1) | ph int32 BE |
	// sum uint32 BE.
	FrameState byte = 2
	// FrameTop carries the ⊤ restart marker backward (acceptor → dialer):
	// payload = group uint32 BE.
	FrameTop byte = 3
	// FrameUp carries a tree convergecast announcement (child → parent):
	// payload = group uint32 BE | child int32 BE | sn int32 BE | cp(1) |
	// ph int32 BE | ackSN int32 BE | ackCP(1) | ackPH int32 BE |
	// sum uint32 BE.
	FrameUp byte = 4
)

// ErrCodec is wrapped by every framing and payload decode error; a codec
// error is permanent for its connection.
var ErrCodec = errors.New("transport: codec error")

// errOversizedPayload rejects an advertised length beyond MaxPayload. It
// is a static error so the rejection allocates nothing: the length field
// is attacker-controlled, and the reject path must not pay for it — not
// with the body allocation (checked before any is made) and not with an
// error allocation either.
var errOversizedPayload = fmt.Errorf("%w: payload length exceeds MaxPayload", ErrCodec)

const (
	helloPayloadLen = 13
	statePayloadLen = 17
	topPayloadLen   = 4
	upPayloadLen    = 30
)

// ConfigDigest hashes an ordered list of configuration strings (topology
// descriptor, peer addresses, group set) into the fingerprint carried by
// the hello frame. FNV-1a 64 with a separator after each part, so the
// digest distinguishes ["ab","c"] from ["a","bc"]. Every member of a
// cluster must derive the digest from identical parts.
func ConfigDigest(parts ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime64
		}
		h ^= 0xff // separator, not a valid string byte boundary marker
		h *= prime64
	}
	return h
}

// AppendFrame appends one encoded frame to dst and returns the extended
// slice. The payload must fit MaxPayload (internal callers only ever
// encode fixed, small payloads).
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	if len(payload) > MaxPayload {
		panic(fmt.Sprintf("transport: payload %d exceeds MaxPayload", len(payload)))
	}
	start := len(dst)
	dst = append(dst, magicByte, typ, byte(len(payload)>>8), byte(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.BigEndian.AppendUint32(dst, crc)
}

// FrameReader is the frame decoder: it owns its buffered reader and a
// single inline payload buffer that every frame is decoded into, so a
// connection's read loop allocates nothing per frame (a per-reader buffer
// beats a sync.Pool here — no contention, no interface boxing, and the
// payload is consumed before the next read anyway).
type FrameReader struct {
	br  *bufio.Reader
	buf [MaxPayload + trailerLen]byte
}

// NewFrameReader returns a FrameReader over r with an internal buffer of
// the given size.
func NewFrameReader(r io.Reader, size int) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, size)}
}

// Read reads one frame and returns its type and payload. The payload
// aliases the reader's internal buffer and is valid only until the next
// Read. Any violation — bad magic, oversized length, truncated frame, CRC
// mismatch — is a codec error wrapping ErrCodec; the caller must drop the
// connection, mapping the failure onto message loss.
func (fr *FrameReader) Read() (typ byte, payload []byte, err error) {
	// Peek instead of reading into a local array: the peeked slice is
	// bufio's own buffer, so the header costs no allocation (a local array
	// would escape through the io.Reader interface call).
	hdr, err := fr.br.Peek(headerLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err // connection-level error (EOF, reset, timeout)
	}
	if hdr[0] != magicByte {
		return 0, nil, fmt.Errorf("%w: bad magic 0x%02x", ErrCodec, hdr[0])
	}
	typ = hdr[1]
	n := int(hdr[2])<<8 | int(hdr[3])
	if n > MaxPayload {
		return 0, nil, errOversizedPayload
	}
	crc := crc32.ChecksumIEEE(hdr)
	fr.br.Discard(headerLen)
	body := fr.buf[:n+trailerLen]
	if _, err := io.ReadFull(fr.br, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("%w: truncated frame: %v", ErrCodec, err)
	}
	crc = crc32.Update(crc, crc32.IEEETable, body[:n])
	if got := binary.BigEndian.Uint32(body[n:]); got != crc {
		return 0, nil, fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrCodec, got, crc)
	}
	return typ, body[:n:n], nil
}

// buffered reports whether a whole frame is already in the buffer, so the
// next Read returns without touching the connection.
func (fr *FrameReader) buffered() bool {
	n := fr.br.Buffered()
	if n < headerLen {
		return false
	}
	hdr, _ := fr.br.Peek(headerLen)
	return n >= headerLen+(int(hdr[2])<<8|int(hdr[3]))+trailerLen
}

// AppendState appends a FrameState carrying m for the given group.
func AppendState(dst []byte, group uint32, m runtime.Message) []byte {
	var p [statePayloadLen]byte
	binary.BigEndian.PutUint32(p[0:4], group)
	binary.BigEndian.PutUint32(p[4:8], uint32(int32(m.SN)))
	p[8] = byte(m.CP)
	binary.BigEndian.PutUint32(p[9:13], uint32(int32(m.PH)))
	binary.BigEndian.PutUint32(p[13:17], m.Sum)
	return AppendFrame(dst, FrameState, p[:])
}

// DecodeState decodes a FrameState payload. The control position is
// range-checked here (a malformed cp could confuse the protocol engine);
// the end-to-end Message.Sum is verified by the receiver's protocol layer,
// not here, so that injected corruption travels the wire like real damage.
func DecodeState(payload []byte) (group uint32, m runtime.Message, err error) {
	if len(payload) != statePayloadLen {
		return 0, runtime.Message{}, fmt.Errorf("%w: state payload length %d, want %d", ErrCodec, len(payload), statePayloadLen)
	}
	group = binary.BigEndian.Uint32(payload[0:4])
	m = runtime.Message{
		SN:  tokenring.SN(int32(binary.BigEndian.Uint32(payload[4:8]))),
		CP:  core.CP(payload[8]),
		PH:  int(int32(binary.BigEndian.Uint32(payload[9:13]))),
		Sum: binary.BigEndian.Uint32(payload[13:17]),
	}
	if int(m.CP) >= core.NumCP {
		return 0, runtime.Message{}, fmt.Errorf("%w: control position %d out of range", ErrCodec, m.CP)
	}
	return group, m, nil
}

// AppendTop appends a FrameTop (the ⊤ restart marker) for the given group.
func AppendTop(dst []byte, group uint32) []byte {
	var p [topPayloadLen]byte
	binary.BigEndian.PutUint32(p[0:4], group)
	return AppendFrame(dst, FrameTop, p[:])
}

// DecodeTop decodes a FrameTop payload into its group id.
func DecodeTop(payload []byte) (group uint32, err error) {
	if len(payload) != topPayloadLen {
		return 0, fmt.Errorf("%w: top payload length %d, want %d", ErrCodec, len(payload), topPayloadLen)
	}
	return binary.BigEndian.Uint32(payload[0:4]), nil
}

// AppendUp appends a FrameUp carrying m for the given group.
func AppendUp(dst []byte, group uint32, m runtime.UpMessage) []byte {
	var p [upPayloadLen]byte
	binary.BigEndian.PutUint32(p[0:4], group)
	binary.BigEndian.PutUint32(p[4:8], uint32(int32(m.Child)))
	binary.BigEndian.PutUint32(p[8:12], uint32(int32(m.SN)))
	p[12] = byte(m.CP)
	binary.BigEndian.PutUint32(p[13:17], uint32(int32(m.PH)))
	binary.BigEndian.PutUint32(p[17:21], uint32(int32(m.AckSN)))
	p[21] = byte(m.AckCP)
	binary.BigEndian.PutUint32(p[22:26], uint32(int32(m.AckPH)))
	binary.BigEndian.PutUint32(p[26:30], m.Sum)
	return AppendFrame(dst, FrameUp, p[:])
}

// DecodeUp decodes a FrameUp payload. Like DecodeState it range-checks the
// control positions but leaves the end-to-end Sum to the protocol layer.
func DecodeUp(payload []byte) (group uint32, m runtime.UpMessage, err error) {
	if len(payload) != upPayloadLen {
		return 0, runtime.UpMessage{}, fmt.Errorf("%w: up payload length %d, want %d", ErrCodec, len(payload), upPayloadLen)
	}
	group = binary.BigEndian.Uint32(payload[0:4])
	m = runtime.UpMessage{
		Child: int(int32(binary.BigEndian.Uint32(payload[4:8]))),
		SN:    tokenring.SN(int32(binary.BigEndian.Uint32(payload[8:12]))),
		CP:    core.CP(payload[12]),
		PH:    int(int32(binary.BigEndian.Uint32(payload[13:17]))),
		AckSN: tokenring.SN(int32(binary.BigEndian.Uint32(payload[17:21]))),
		AckCP: core.CP(payload[21]),
		AckPH: int(int32(binary.BigEndian.Uint32(payload[22:26]))),
		Sum:   binary.BigEndian.Uint32(payload[26:30]),
	}
	if int(m.CP) >= core.NumCP {
		return 0, runtime.UpMessage{}, fmt.Errorf("%w: control position %d out of range", ErrCodec, m.CP)
	}
	if int(m.AckCP) >= core.NumCP {
		return 0, runtime.UpMessage{}, fmt.Errorf("%w: ack control position %d out of range", ErrCodec, m.AckCP)
	}
	return group, m, nil
}

// AppendHello appends a FrameHello announcing the dialer's member id and
// its configuration digest.
func AppendHello(dst []byte, id int, digest uint64) []byte {
	var p [helloPayloadLen]byte
	p[0] = helloVersion
	binary.BigEndian.PutUint32(p[1:5], uint32(id))
	binary.BigEndian.PutUint64(p[5:13], digest)
	return AppendFrame(dst, FrameHello, p[:])
}

// errHelloVersion rejects a hello from a peer speaking a different wire
// format version. Distinct from errDigestMismatch so operators can tell a
// version skew from a topology/group-set misconfiguration.
var errHelloVersion = fmt.Errorf("%w: hello version mismatch", ErrCodec)

// DecodeHello decodes a FrameHello payload into the dialer's member id and
// config digest.
func DecodeHello(payload []byte) (id int, digest uint64, err error) {
	if len(payload) != helloPayloadLen {
		// A v1 hello was 5 bytes; report length mismatches (the usual
		// symptom of version skew) via the version error for a clear reject
		// reason, keeping genuinely malformed payloads on the generic path.
		if len(payload) == 5 {
			return 0, 0, fmt.Errorf("%w (got v%d frame)", errHelloVersion, payload[0])
		}
		return 0, 0, fmt.Errorf("%w: hello payload length %d, want %d", ErrCodec, len(payload), helloPayloadLen)
	}
	if payload[0] != helloVersion {
		return 0, 0, fmt.Errorf("%w (got %d, want %d)", errHelloVersion, payload[0], helloVersion)
	}
	return int(binary.BigEndian.Uint32(payload[1:5])), binary.BigEndian.Uint64(payload[5:13]), nil
}
