package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/tokenring"
	"repro/internal/topo"
)

// readOne decodes the first frame of b with a reader of its own, so the
// payload stays valid.
func readOne(t *testing.T, b []byte) (byte, []byte, error) {
	t.Helper()
	return NewFrameReader(bytes.NewReader(b), 256).Read()
}

func TestStateRoundTrip(t *testing.T) {
	msgs := []runtime.Message{
		{SN: 0, CP: core.Execute, PH: 0},
		{SN: 7, CP: core.Error, PH: 2},
		{SN: tokenring.Bot, CP: core.Error, PH: 1},
		{SN: tokenring.Top, CP: core.Execute, PH: 3},
	}
	for i := range msgs {
		msgs[i].Sum = msgs[i].Checksum()
	}
	// Also a deliberately corrupted Sum: the codec must carry it verbatim
	// (the protocol layer, not the transport, verifies the end-to-end sum).
	bad := runtime.Message{SN: 3, CP: core.Execute, PH: 1}
	bad.Sum = bad.Checksum() ^ 0xdeadbeef
	msgs = append(msgs, bad)

	groups := []uint32{0, 1, 63, 1<<32 - 1}
	for i, m := range msgs {
		group := groups[i%len(groups)]
		frame := AppendState(nil, group, m)
		typ, payload, err := readOne(t, frame)
		if err != nil {
			t.Fatalf("Read(%+v): %v", m, err)
		}
		if typ != FrameState {
			t.Fatalf("frame type = %d, want FrameState", typ)
		}
		g, got, err := DecodeState(payload)
		if err != nil {
			t.Fatalf("DecodeState(%+v): %v", m, err)
		}
		if got != m || g != group {
			t.Errorf("round trip: got (%d, %+v), want (%d, %+v)", g, got, group, m)
		}
	}
}

func TestUpRoundTrip(t *testing.T) {
	msgs := []runtime.UpMessage{
		{Child: 3, SN: 0, CP: core.Execute, PH: 0, AckSN: 0, AckCP: core.Ready, AckPH: 0},
		{Child: 1, SN: 7, CP: core.Error, PH: 2, AckSN: 6, AckCP: core.Success, AckPH: 1},
		{Child: 5, SN: tokenring.Bot, CP: core.Error, PH: 1, AckSN: tokenring.Top, AckCP: core.Repeat, AckPH: 3},
	}
	for i := range msgs {
		msgs[i].Sum = msgs[i].Checksum()
	}
	// A corrupted Sum must travel verbatim — the protocol layer verifies it.
	bad := runtime.UpMessage{Child: 2, SN: 3, CP: core.Execute, PH: 1}
	bad.Sum = bad.Checksum() ^ 0xdeadbeef
	msgs = append(msgs, bad)

	groups := []uint32{0, 9, 4095}
	for i, m := range msgs {
		group := groups[i%len(groups)]
		frame := AppendUp(nil, group, m)
		typ, payload, err := readOne(t, frame)
		if err != nil {
			t.Fatalf("Read(%+v): %v", m, err)
		}
		if typ != FrameUp {
			t.Fatalf("frame type = %d, want FrameUp", typ)
		}
		g, got, err := DecodeUp(payload)
		if err != nil {
			t.Fatalf("DecodeUp(%+v): %v", m, err)
		}
		if got != m || g != group {
			t.Errorf("round trip: got (%d, %+v), want (%d, %+v)", g, got, group, m)
		}
	}

	// Payload-level violations.
	if _, _, err := DecodeUp(make([]byte, upPayloadLen-1)); !errors.Is(err, ErrCodec) {
		t.Errorf("short up payload: %v, want ErrCodec", err)
	}
	badCP := make([]byte, upPayloadLen)
	badCP[12] = byte(core.NumCP)
	if _, _, err := DecodeUp(badCP); !errors.Is(err, ErrCodec) {
		t.Errorf("out-of-range cp: %v, want ErrCodec", err)
	}
	badAck := make([]byte, upPayloadLen)
	badAck[21] = byte(core.NumCP)
	if _, _, err := DecodeUp(badAck); !errors.Is(err, ErrCodec) {
		t.Errorf("out-of-range ack cp: %v, want ErrCodec", err)
	}
}

// oversizeFrame builds a frame whose advertised length exceeds MaxPayload
// but whose CRC is internally consistent — AppendFrame refuses to encode
// one, so it is crafted by hand. Only the length check can reject it.
func oversizeFrame() []byte {
	n := MaxPayload + 1
	b := []byte{magicByte, FrameState, byte(n >> 8), byte(n)}
	b = append(b, make([]byte, n)...)
	crc := crc32.ChecksumIEEE(b)
	return binary.BigEndian.AppendUint32(b, crc)
}

// The oversize reject path must not allocate: the advertised length is
// attacker-controlled, and rejection happens before any buffer is sized by
// it — with a static error, so the hot loop pays nothing for abuse.
func TestOversizeRejectionDoesNotAllocate(t *testing.T) {
	frame := oversizeFrame()
	src := bytes.NewReader(frame)
	fr := NewFrameReader(src, 4096)
	if n := testing.AllocsPerRun(200, func() {
		src.Reset(frame)
		fr.br.Reset(src)
		_, _, err := fr.Read()
		if err != errOversizedPayload {
			t.Fatalf("err = %v, want errOversizedPayload", err)
		}
	}); n != 0 {
		t.Errorf("oversize rejection allocates %.1f objects per frame, want 0", n)
	}
}

// The FrameReader hot path must not allocate per accepted frame either —
// the payload is decoded into the reader's own buffer. The v2 group tag
// must not change that.
func TestFrameReaderDoesNotAllocate(t *testing.T) {
	m := runtime.Message{SN: 5, CP: core.Execute, PH: 2}
	m.Sum = m.Checksum()
	frame := AppendState(nil, 17, m)
	src := bytes.NewReader(frame)
	fr := NewFrameReader(src, 256)
	if n := testing.AllocsPerRun(200, func() {
		src.Reset(frame)
		fr.br.Reset(src)
		typ, payload, err := fr.Read()
		if err != nil || typ != FrameState {
			t.Fatalf("Read: type %d err %v", typ, err)
		}
		g, got, err := DecodeState(payload)
		if err != nil || got != m || g != 17 {
			t.Fatalf("DecodeState: (%d, %+v) err %v", g, got, err)
		}
	}); n != 0 {
		t.Errorf("FrameReader.Read allocates %.1f objects per frame, want 0", n)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	digests := []uint64{0, 1, 0xdeadbeefcafef00d, 1<<64 - 1}
	for i, id := range []int{0, 1, 3, 1 << 20} {
		digest := digests[i]
		frame := AppendHello(nil, id, digest)
		typ, payload, err := readOne(t, frame)
		if err != nil {
			t.Fatal(err)
		}
		if typ != FrameHello {
			t.Fatalf("frame type = %d, want FrameHello", typ)
		}
		got, gotDigest, err := DecodeHello(payload)
		if err != nil {
			t.Fatal(err)
		}
		if got != id || gotDigest != digest {
			t.Errorf("hello round trip: got (%d, %016x), want (%d, %016x)", got, gotDigest, id, digest)
		}
	}
}

func TestTopRoundTrip(t *testing.T) {
	for _, group := range []uint32{0, 7, 1<<32 - 1} {
		frame := AppendTop(nil, group)
		typ, payload, err := readOne(t, frame)
		if err != nil {
			t.Fatal(err)
		}
		if typ != FrameTop {
			t.Fatalf("got type %d, want FrameTop", typ)
		}
		g, err := DecodeTop(payload)
		if err != nil {
			t.Fatal(err)
		}
		if g != group {
			t.Errorf("top round trip: got group %d, want %d", g, group)
		}
	}
	if _, err := DecodeTop(nil); !errors.Is(err, ErrCodec) {
		t.Errorf("v1-style empty top payload: %v, want ErrCodec", err)
	}
}

// ConfigDigest must separate parts (["ab","c"] vs ["a","bc"]) and react to
// every component.
func TestConfigDigest(t *testing.T) {
	if ConfigDigest("ab", "c") == ConfigDigest("a", "bc") {
		t.Error("digest does not separate parts")
	}
	if ConfigDigest("ring", "4") == ConfigDigest("ring", "5") {
		t.Error("digest ignores ring size")
	}
	if ConfigDigest() != ConfigDigest() {
		t.Error("digest not deterministic")
	}
	peers := []string{"a:1", "b:2", "c:3"}
	ring := func(id uint32) MuxConfig {
		return MuxConfig{TCPConfig: TCPConfig{Peers: peers}, Groups: []GroupSpec{{ID: id, Topology: GroupRing}}}
	}
	tree := MuxConfig{TCPConfig: TCPConfig{Peers: peers}, Groups: []GroupSpec{{ID: 0, Topology: GroupTree}}}
	if muxDigest(ring(0), nil) == muxDigest(ring(1), nil) {
		t.Error("digest ignores the group id")
	}
	reordered := ring(0)
	reordered.Peers = []string{"b:2", "a:1", "c:3"}
	if muxDigest(ring(0), nil) == muxDigest(reordered, nil) {
		t.Error("digest ignores peer order")
	}
	if muxDigest(ring(0), nil) == muxDigest(tree, nil) {
		t.Error("ring and tree digests collide")
	}
	// Identical deployments spelled differently must agree: the defaults
	// (ring, arity 2) are filled in before hashing.
	implicit := MuxConfig{TCPConfig: TCPConfig{Peers: peers}, Groups: []GroupSpec{{ID: 0}}}
	if muxDigest(implicit, nil) != muxDigest(ring(0), nil) {
		t.Error(`Topology "" and "ring" hash differently`)
	}
	arity := tree
	arity.Groups = []GroupSpec{{ID: 0, Topology: GroupTree, TreeArity: 2}}
	if muxDigest(tree, nil) != muxDigest(arity, nil) {
		t.Error("TreeArity 0 and 2 hash differently")
	}
	// The parent vector of a tree TCP is part of the configuration.
	heap, _ := topo.NewTree([]int{-1, 0, 0})
	chain, _ := topo.NewTree([]int{-1, 0, 1})
	if muxDigest(tree, heap) == muxDigest(tree, chain) {
		t.Error("digest ignores the parent vector")
	}
}

// Several frames back to back decode in order — the reader never consumes
// past a frame boundary.
func TestFrameStream(t *testing.T) {
	m := runtime.Message{SN: 5, CP: core.Execute, PH: 2}
	m.Sum = m.Checksum()
	var buf []byte
	buf = AppendHello(buf, 3, 0xfeed)
	buf = AppendState(buf, 1, m)
	buf = AppendTop(buf, 2)
	fr := NewFrameReader(bytes.NewReader(buf), 4096)
	wantTypes := []byte{FrameHello, FrameState, FrameTop}
	for i, want := range wantTypes {
		typ, _, err := fr.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != want {
			t.Fatalf("frame %d: type %d, want %d", i, typ, want)
		}
	}
	if _, _, err := fr.Read(); err != io.EOF {
		t.Errorf("after last frame: err = %v, want io.EOF", err)
	}
}

// Every framing violation is a codec error: the caller must drop the
// connection rather than resynchronize.
func TestFrameViolations(t *testing.T) {
	good := AppendState(nil, 3, runtime.Message{SN: 1, CP: core.Execute, PH: 0})

	cases := []struct {
		name string
		b    []byte
	}{
		{"bad magic", append([]byte{0x00}, good[1:]...)},
		{"oversized length", func() []byte {
			b := append([]byte(nil), good...)
			b[2], b[3] = 0xff, 0xff
			return b
		}()},
		{"truncated payload", good[:len(good)-6]},
		{"truncated crc", good[:len(good)-1]},
		{"truncated group tag", good[:headerLen+2]},
		{"flipped payload bit", func() []byte {
			b := append([]byte(nil), good...)
			b[headerLen] ^= 0x01
			return b
		}()},
		{"flipped group bit", func() []byte {
			// Corrupting the group id must fail the frame CRC, not reroute
			// the frame to another group.
			b := append([]byte(nil), good...)
			b[headerLen+3] ^= 0x01
			return b
		}()},
		{"flipped crc bit", func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 0x01
			return b
		}()},
	}
	truncated := map[string]bool{"truncated payload": true, "truncated crc": true, "truncated group tag": true}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := readOne(t, tc.b)
			if err == nil {
				t.Fatal("malformed frame accepted")
			}
			if !truncated[tc.name] && !errors.Is(err, ErrCodec) {
				t.Errorf("err = %v, does not wrap ErrCodec", err)
			}
		})
	}
	// Truncation specifically must also wrap ErrCodec (partial frame, not
	// a clean EOF between frames).
	if _, _, err := readOne(t, good[:len(good)-1]); !errors.Is(err, ErrCodec) {
		t.Errorf("truncated frame: err = %v, want ErrCodec", err)
	}
}

// Payload-level violations.
func TestPayloadViolations(t *testing.T) {
	if _, _, err := DecodeState(make([]byte, statePayloadLen-1)); !errors.Is(err, ErrCodec) {
		t.Errorf("short state payload: %v, want ErrCodec", err)
	}
	// A v1-length state payload (13 bytes, no group tag) must be rejected.
	if _, _, err := DecodeState(make([]byte, 13)); !errors.Is(err, ErrCodec) {
		t.Errorf("v1 state payload: %v, want ErrCodec", err)
	}
	badCP := make([]byte, statePayloadLen)
	badCP[8] = byte(core.NumCP)
	if _, _, err := DecodeState(badCP); !errors.Is(err, ErrCodec) {
		t.Errorf("out-of-range cp: %v, want ErrCodec", err)
	}
	if _, _, err := DecodeHello([]byte{99, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}); !errors.Is(err, errHelloVersion) {
		t.Errorf("bad hello version: %v, want errHelloVersion", err)
	}
	// A v1 hello (5-byte payload) must be rejected with the distinct
	// version-mismatch reason, not a generic length error.
	if _, _, err := DecodeHello([]byte{1, 0, 0, 0, 2}); !errors.Is(err, errHelloVersion) {
		t.Errorf("v1 hello: %v, want errHelloVersion", err)
	}
	if _, _, err := DecodeHello([]byte{helloVersion}); !errors.Is(err, ErrCodec) {
		t.Errorf("short hello: %v, want ErrCodec", err)
	}
}

func TestAppendFramePanicsOnOversizedPayload(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AppendFrame accepted an oversized payload")
		}
	}()
	AppendFrame(nil, FrameState, make([]byte, MaxPayload+1))
}

// FuzzTransport feeds arbitrary bytes to the frame reader. Invariants: the
// reader never panics, never allocates beyond MaxPayload, accepts a frame
// only if re-encoding the decoded content reproduces the exact input bytes
// it consumed — so truncated frames, bad checksums and oversized lengths
// can never be accepted — and decodes the same whatever its buffer size.
func FuzzTransport(f *testing.F) {
	m := runtime.Message{SN: 4, CP: core.Execute, PH: 1}
	m.Sum = m.Checksum()
	good := AppendState(nil, 0, m)
	tagged := AppendState(nil, 4242, m)

	um := runtime.UpMessage{Child: 2, SN: 5, CP: core.Success, PH: 0, AckSN: 5, AckCP: core.Success, AckPH: 0}
	um.Sum = um.Checksum()

	f.Add([]byte{})
	f.Add(good)
	f.Add(tagged)
	f.Add(AppendHello(nil, 2, 0x1122334455667788))
	f.Add(AppendTop(nil, 0))
	f.Add(AppendTop(nil, 99))
	f.Add(AppendUp(nil, 0, um))
	f.Add(AppendUp(nil, 7, um))
	f.Add(good[:3])                      // truncated header
	f.Add(good[:len(good)-2])            // truncated trailer
	f.Add(tagged[:headerLen+2])          // truncated inside the group tag
	f.Add(append([]byte{0x00}, good...)) // garbage before a frame
	corrupt := append([]byte(nil), good...)
	corrupt[5] ^= 0x40
	f.Add(corrupt) // checksum mismatch
	groupFlip := append([]byte(nil), tagged...)
	groupFlip[headerLen+1] ^= 0x80
	f.Add(groupFlip) // corrupted group id, stale CRC
	oversize := append([]byte(nil), good...)
	oversize[2], oversize[3] = 0x7f, 0xff
	f.Add(oversize)        // advertised length beyond MaxPayload, stale CRC
	f.Add(oversizeFrame()) // advertised length beyond MaxPayload, valid CRC
	// v1-format frames: 5-byte hello, 13-byte state, empty top — all must
	// reject at the payload decoders, never panic.
	f.Add(AppendFrame(nil, FrameHello, []byte{1, 0, 0, 0, 2}))
	f.Add(AppendFrame(nil, FrameState, make([]byte, 13)))
	f.Add(AppendFrame(nil, FrameTop, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data), 4096)
		// The smallest bufio buffer (16 bytes) holds less than a state
		// frame, so its reads cross buffer refills.
		small := NewFrameReader(bytes.NewReader(data), 16)
		consumed := 0
		for {
			typ, payload, err := fr.Read()
			// Both readers must agree exactly: same frames accepted, same
			// payload bytes, rejection at the same point in the stream.
			styp, spayload, serr := small.Read()
			if (err == nil) != (serr == nil) {
				t.Fatalf("readers disagree: 4096-byte buffer err %v, 16-byte buffer err %v", err, serr)
			}
			if err == nil && (styp != typ || !bytes.Equal(spayload, payload)) {
				t.Fatalf("readers disagree: 4096-byte buffer (%d, %x), 16-byte buffer (%d, %x)", typ, payload, styp, spayload)
			}
			if err != nil {
				return // rejection is always a safe outcome
			}
			if len(payload) > MaxPayload {
				t.Fatalf("accepted payload of %d bytes > MaxPayload", len(payload))
			}
			// An accepted frame must be bit-identical to its re-encoding:
			// the CRC makes accepting a damaged frame astronomically
			// unlikely, and this catches any codec asymmetry.
			reenc := AppendFrame(nil, typ, payload)
			end := consumed + len(reenc)
			if end > len(data) || !bytes.Equal(data[consumed:end], reenc) {
				t.Fatalf("accepted frame does not round-trip: type %d payload %x", typ, payload)
			}
			consumed = end
			// Typed payloads must decode or reject cleanly, never panic, and
			// typed re-encoding must reproduce the payload including the
			// group tag.
			switch typ {
			case FrameState:
				if g, sm, err := DecodeState(payload); err == nil {
					if !bytes.Equal(AppendState(nil, g, sm), reenc) {
						t.Fatalf("state re-encode diverges: group %d %+v", g, sm)
					}
				}
			case FrameTop:
				if g, err := DecodeTop(payload); err == nil {
					if !bytes.Equal(AppendTop(nil, g), reenc) {
						t.Fatalf("top re-encode diverges: group %d", g)
					}
				}
			case FrameHello:
				if id, digest, err := DecodeHello(payload); err == nil {
					if !bytes.Equal(AppendHello(nil, id, digest), reenc) {
						t.Fatalf("hello re-encode diverges: id %d digest %016x", id, digest)
					}
				}
			case FrameUp:
				if g, um, err := DecodeUp(payload); err == nil {
					if !bytes.Equal(AppendUp(nil, g, um), reenc) {
						t.Fatalf("up re-encode diverges: group %d %+v", g, um)
					}
				}
			}
		}
	})
}
