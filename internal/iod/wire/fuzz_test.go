package wire

import (
	"bytes"
	"testing"

	"ndpcr/internal/blockpool"
)

// FuzzWireDecode throws arbitrary bytes at the frame reader. The decoder
// must never panic or over-allocate: any input either yields a frame whose
// checksum verified, or a decode error with the Conn still usable.
func FuzzWireDecode(f *testing.F) {
	// Seed with a valid frame (carrying a request ID), a truncated one, a
	// corrupted one, and last the same frame as the previous version's peer sent it.
	var buf bytes.Buffer
	tx := NewConn(pipeConn{Writer: &buf})
	if err := tx.WriteFrame(Header{Op: 4, Index: 7, Aux: 0x1122334455}, []byte("meta"), []byte("payload")); err != nil {
		f.Fatal(err)
	}
	valid := append([]byte(nil), buf.Bytes()...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, HeaderSize+8))
	old := append([]byte(nil), valid...)
	old[4] = Version - 1
	f.Add(old)

	f.Fuzz(func(t *testing.T, data []byte) {
		rx := NewConn(pipeConn{Reader: bytes.NewReader(data)})
		for {
			h, meta, payload, err := rx.ReadFrame()
			if err != nil {
				return
			}
			if int(h.MetaLen) != len(meta) || int(h.PayloadLen) != len(payload) {
				t.Fatalf("section lengths disagree with header: %d/%d vs %d/%d",
					h.MetaLen, h.PayloadLen, len(meta), len(payload))
			}
			if crc := checksum(new([HeaderSize]byte), h, meta, payload); crc != h.CRC {
				t.Fatalf("ReadFrame returned a frame whose checksum does not verify")
			}
			blockpool.Put(payload)
		}
	})
}

// FuzzReaderDecode exercises the varint meta reader: arbitrary sections
// must decode to values or a sticky error, never panic.
func FuzzReaderDecode(f *testing.F) {
	var seed []byte
	seed = AppendString(seed, "job")
	seed = AppendInt(seed, -42)
	seed = AppendUvarint(seed, 1<<40)
	f.Add(seed)
	f.Add([]byte{0x80})      // unterminated varint
	f.Add([]byte{0x05, 'a'}) // string length overruns
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		for r.Err() == nil && r.Len() > 0 {
			before := r.Len()
			_ = r.String()
			_ = r.Int()
			_ = r.Uvarint()
			if r.Err() == nil && r.Len() == before {
				t.Fatal("reader made no progress without erroring")
			}
		}
	})
}
