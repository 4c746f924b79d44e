package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Magic:      Magic,
		Version:    Version,
		Op:         7,
		Flags:      FlagOK | FlagNotFound,
		Index:      0xdeadbeef,
		MetaLen:    123,
		PayloadLen: 456,
		Aux:        0x0123456789abcdef,
		CRC:        0xcafef00d,
	}
	var buf [HeaderSize]byte
	EncodeHeader(buf[:], h)
	got, err := DecodeHeader(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestDecodeHeaderRejects(t *testing.T) {
	mk := func(mut func(h *Header)) []byte {
		h := Header{Magic: Magic, Version: Version}
		mut(&h)
		var buf [HeaderSize]byte
		EncodeHeader(buf[:], h)
		return buf[:]
	}
	cases := []struct {
		name string
		src  []byte
		want error
	}{
		{"short", make([]byte, HeaderSize-1), ErrTruncated},
		{"magic", mk(func(h *Header) { h.Magic = 0x12345678 }), ErrBadMagic},
		// The previous version's peer matched replies by order and left aux
		// zero: it must be refused outright, not answered as request ID 0
		// forever.
		{"previous version's peer", mk(func(h *Header) { h.Version = Version - 1 }), ErrBadVersion},
		{"future version", mk(func(h *Header) { h.Version = Version + 1 }), ErrBadVersion},
		{"meta cap", mk(func(h *Header) { h.MetaLen = MaxMetaLen + 1 }), ErrFrameTooLarge},
		{"payload cap", mk(func(h *Header) { h.PayloadLen = MaxPayloadLen + 1 }), ErrFrameTooLarge},
	}
	for _, c := range cases {
		if _, err := DecodeHeader(c.src); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// pipeConn joins a write buffer and a read buffer so one Conn's output can
// feed another Conn's input.
type pipeConn struct {
	io.Reader
	io.Writer
}

func TestFrameRoundTrip(t *testing.T) {
	var net bytes.Buffer
	tx := NewConn(pipeConn{Writer: &net})
	rx := NewConn(pipeConn{Reader: &net})

	meta := []byte("meta-section")
	p1, p2 := []byte("hello "), []byte("world")
	h := Header{Op: 3, Flags: FlagOK, Index: 42, Aux: 99}
	if err := tx.WriteFrame(h, meta, p1, p2); err != nil {
		t.Fatal(err)
	}
	gh, gmeta, gpayload, err := rx.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if gh.Op != 3 || gh.Flags != FlagOK || gh.Index != 42 || gh.Aux != 99 {
		t.Errorf("header fields lost: %+v", gh)
	}
	if !bytes.Equal(gmeta, meta) {
		t.Errorf("meta = %q, want %q", gmeta, meta)
	}
	if !bytes.Equal(gpayload, []byte("hello world")) {
		t.Errorf("payload = %q, want %q", gpayload, "hello world")
	}
}

// TestWriteFrameAllocatesNothing: the header is checksummed in the Conn's
// own scratch and the scatter/gather list reuses its backing array, so a
// frame costs no allocation however many the connection sends.
func TestWriteFrameAllocatesNothing(t *testing.T) {
	tx := NewConn(pipeConn{Writer: io.Discard})
	meta, p1, p2 := []byte("meta-section"), make([]byte, 4096), make([]byte, 100)
	h := Header{Op: 3, Index: 42, Aux: 99}
	if n := testing.AllocsPerRun(100, func() {
		if err := tx.WriteFrame(h, meta, p1, p2); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteFrame of a frame with meta and payload allocates %v times, want 0", n)
	}
}

func TestFrameEmptySections(t *testing.T) {
	var net bytes.Buffer
	tx := NewConn(pipeConn{Writer: &net})
	rx := NewConn(pipeConn{Reader: &net})
	if err := tx.WriteFrame(Header{Op: 1}, nil); err != nil {
		t.Fatal(err)
	}
	h, meta, payload, err := rx.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if h.MetaLen != 0 || h.PayloadLen != 0 || len(meta) != 0 || payload != nil {
		t.Errorf("empty frame decoded as meta=%d payload=%d", h.MetaLen, h.PayloadLen)
	}
}

func TestCorruptNextTripsChecksum(t *testing.T) {
	var net bytes.Buffer
	tx := NewConn(pipeConn{Writer: &net})
	rx := NewConn(pipeConn{Reader: &net})

	payload := []byte("precious checkpoint bytes")
	keep := append([]byte(nil), payload...)
	tx.CorruptNext = true
	if err := tx.WriteFrame(Header{Op: 2}, []byte("m"), payload); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := rx.ReadFrame(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted frame err = %v, want ErrChecksum", err)
	}
	if !bytes.Equal(payload, keep) {
		t.Error("CorruptNext mutated the caller's payload slice")
	}
	if tx.CorruptNext {
		t.Error("CorruptNext did not clear after one frame")
	}

	// The stream stays aligned: the next frame decodes cleanly.
	if err := tx.WriteFrame(Header{Op: 2}, nil, payload); err != nil {
		t.Fatal(err)
	}
	_, _, got, err := rx.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, keep) {
		t.Error("frame after a checksum failure decoded wrong")
	}
}

// TestHeaderCorruptionTripsChecksum flips bits in the header's semantic
// fields (op, flags, index, aux, section lengths) on the wire and checks
// the receiver rejects the frame: the CRC covers the header, so a silent
// bit-flip cannot redirect a block to the wrong index or invert a
// NotFound reply. (Magic/version damage is caught structurally instead.)
func TestHeaderCorruptionTripsChecksum(t *testing.T) {
	frame := func() []byte {
		var net bytes.Buffer
		tx := NewConn(pipeConn{Writer: &net})
		h := Header{Op: 4, Flags: FlagOK, Index: 7, Aux: 0x1234}
		if err := tx.WriteFrame(h, []byte("meta"), []byte("payload")); err != nil {
			t.Fatal(err)
		}
		return net.Bytes()
	}
	offsets := map[string]int{
		"op":         5,
		"flags":      6,
		"index":      8,
		"metaLen":    12,
		"payloadLen": 16,
		"aux":        20,
	}
	for name, off := range offsets {
		fr := frame()
		fr[off] ^= 0x01
		rx := NewConn(pipeConn{Reader: bytes.NewReader(fr)})
		_, _, _, err := rx.ReadFrame()
		if err == nil {
			t.Errorf("%s: flipped header byte %d decoded cleanly", name, off)
			continue
		}
		// Length-field damage may surface as a truncated-section read
		// instead of ErrChecksum; semantic fields must trip the CRC.
		if (name == "op" || name == "flags" || name == "index" || name == "aux") && !errors.Is(err, ErrChecksum) {
			t.Errorf("%s: err = %v, want ErrChecksum", name, err)
		}
	}
}
