// Package wire implements the iod binary wire protocol (version 5, the
// only one spoken): fixed little-endian frame headers, varint-coded
// metadata sections, CRC32C frame checksums, and payloads received into
// pooled buffers (package blockpool). At GB/s drain rates a reflective
// codec that allocates and copies per block, not the network, is the
// ceiling. A frame is
//
//	+--------+---------+----+-------+-------+---------+------------+-------+-------+
//	| magic  | version | op | flags | index | metaLen | payloadLen |  aux  |  crc  |
//	|  u32   |   u8    | u8 |  u16  |  u32  |   u32   |    u32     |  u64  |  u32  |
//	+--------+---------+----+-------+-------+---------+------------+-------+-------+
//	| meta section (metaLen bytes: varint-coded key/object/inventory fields)       |
//	+-------------------------------------------------------------------------------+
//	| payload (payloadLen bytes: one block's raw bytes, or none)                    |
//	+-------------------------------------------------------------------------------+
//
// so a sender ships header+meta+payload with a single scatter/gather
// (writev) system call and zero intermediate copies, and a receiver reads
// the payload straight into a pooled buffer. aux is the request ID:
// a connection carries many exchanges at once, a reply echoes its request's
// aux, and the iod client matches the two by it. The crc field is CRC32C
// (Castagnoli) over the header (with the crc field itself zeroed), then
// meta, then payload, verified on every receive: silent wire corruption —
// including a flipped bit in the header's op, flags, index, or aux fields,
// which would otherwise silently redirect a block or invert a NotFound
// reply — trips a checksum error instead of surfacing later as a garbage
// checkpoint.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"

	"ndpcr/internal/blockpool"
)

const (
	// Magic leads every frame: "NDP2" read as a little-endian uint32.
	Magic uint32 = 0x3250444e
	// Version is the protocol revision carried in every header. A peer of
	// another revision fails DecodeHeader with ErrBadVersion.
	Version = 5
	// HeaderSize is the fixed frame header length in bytes.
	HeaderSize = 32

	// MaxMetaLen caps the metadata section so a corrupt or hostile length
	// field cannot force an unbounded allocation.
	MaxMetaLen = 16 << 20
	// MaxPayloadLen caps the payload section likewise.
	MaxPayloadLen = 1 << 30
)

// Response flags (request frames carry zero flags).
const (
	// FlagNotFound marks an iostore.ErrNotFound result.
	FlagNotFound uint16 = 1 << 0
	// FlagOK carries the bool of StatBlocks replies.
	FlagOK uint16 = 1 << 1
)

// Decode and verification errors.
var (
	ErrBadMagic      = errors.New("wire: bad frame magic")
	ErrBadVersion    = errors.New("wire: unsupported frame version")
	ErrChecksum      = errors.New("wire: frame checksum mismatch")
	ErrFrameTooLarge = errors.New("wire: frame section exceeds size cap")
	ErrTruncated     = errors.New("wire: truncated section")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum computes the frame checksum: CRC32C over the encoded header
// with its CRC field zeroed (so Op, Flags, Index, Aux, and the section
// lengths are all covered — a flipped header bit must not silently
// redirect a block or invert a reply flag), then the meta section, then
// every payload slice in order. h.CRC is ignored. The header is encoded
// into hdr, scratch of the caller's: a local array would escape into the
// CRC call and cost every frame an allocation.
func checksum(hdr *[HeaderSize]byte, h Header, meta []byte, payloads ...[]byte) uint32 {
	h.CRC = 0
	EncodeHeader(hdr[:], h)
	crc := crc32.Update(0, castagnoli, hdr[:])
	crc = crc32.Update(crc, castagnoli, meta)
	for _, p := range payloads {
		crc = crc32.Update(crc, castagnoli, p)
	}
	return crc
}

// Header is the fixed-size frame header. Magic, Version, MetaLen,
// PayloadLen, and CRC are filled by Conn.WriteFrame; callers set Op, Flags,
// Index, and Aux.
type Header struct {
	Magic      uint32
	Version    uint8
	Op         uint8
	Flags      uint16
	Index      uint32
	MetaLen    uint32
	PayloadLen uint32
	Aux        uint64
	CRC        uint32
}

// EncodeHeader writes h into dst, which must be at least HeaderSize bytes.
func EncodeHeader(dst []byte, h Header) {
	le := binary.LittleEndian
	le.PutUint32(dst[0:], h.Magic)
	dst[4] = h.Version
	dst[5] = h.Op
	le.PutUint16(dst[6:], h.Flags)
	le.PutUint32(dst[8:], h.Index)
	le.PutUint32(dst[12:], h.MetaLen)
	le.PutUint32(dst[16:], h.PayloadLen)
	le.PutUint64(dst[20:], h.Aux)
	le.PutUint32(dst[28:], h.CRC)
}

// DecodeHeader parses and validates a frame header: magic, version, and
// the section-size caps. A failed validation means the stream is not (or no
// longer) carrying frames of this version, so the connection must be dropped.
func DecodeHeader(src []byte) (Header, error) {
	if len(src) < HeaderSize {
		return Header{}, fmt.Errorf("%w: header needs %d bytes, have %d", ErrTruncated, HeaderSize, len(src))
	}
	le := binary.LittleEndian
	h := Header{
		Magic:      le.Uint32(src[0:]),
		Version:    src[4],
		Op:         src[5],
		Flags:      le.Uint16(src[6:]),
		Index:      le.Uint32(src[8:]),
		MetaLen:    le.Uint32(src[12:]),
		PayloadLen: le.Uint32(src[16:]),
		Aux:        le.Uint64(src[20:]),
		CRC:        le.Uint32(src[28:]),
	}
	if h.Magic != Magic {
		return Header{}, fmt.Errorf("%w: %08x", ErrBadMagic, h.Magic)
	}
	if h.Version != Version {
		return Header{}, fmt.Errorf("%w: %d", ErrBadVersion, h.Version)
	}
	if h.MetaLen > MaxMetaLen || h.PayloadLen > MaxPayloadLen {
		return Header{}, fmt.Errorf("%w: meta %d, payload %d", ErrFrameTooLarge, h.MetaLen, h.PayloadLen)
	}
	return h, nil
}

// Conn frames one side of a connection. Its read half (br, hdrR, meta) and
// its write half (hdrW, bufs, out, CorruptNext) share nothing, so one goroutine
// may be in ReadFrame while another is in WriteFrame — but never two in
// either: both iod ends keep one reader per connection and serialize
// writers behind a lock.
type Conn struct {
	w  io.Writer
	br *bufio.Reader

	// CorruptNext, when set, makes the next WriteFrame flip one byte of the
	// frame body after the checksum is computed — the faultinject iod.conn
	// corrupt mode, which the peer's checksum verification must catch. The
	// flag clears itself after one frame.
	CorruptNext bool

	hdrW [HeaderSize]byte
	hdrR [HeaderSize]byte
	bufs net.Buffers // the frame's sections; out is what WriteTo has left of them
	out  net.Buffers
	meta []byte
}

// readBufSize is the Conn's read-side buffer: two drain blocks, so one
// read syscall usually swallows a whole frame (header, meta, and payload)
// instead of fragmenting the payload across several 4 KiB reads.
const readBufSize = 128 << 10

// NewConn wraps rw (a net.Conn in production; any ReadWriter in tests).
func NewConn(rw io.ReadWriter) *Conn {
	return &Conn{w: rw, br: bufio.NewReaderSize(rw, readBufSize)}
}

// WriteFrame sends one frame: header, meta section, and the payload slices
// concatenated in order. The checksum and section lengths are computed
// here; h.Op, h.Flags, h.Index, and h.Aux come from the caller. The payload
// slices are written in place — scatter/gather via net.Buffers (writev on a
// TCP conn), with no intermediate copy or concatenation.
func (c *Conn) WriteFrame(h Header, meta []byte, payloads ...[]byte) error {
	h.Magic, h.Version = Magic, Version
	h.MetaLen = uint32(len(meta))
	var plen int
	for _, p := range payloads {
		plen += len(p)
	}
	h.PayloadLen = uint32(plen)
	h.CRC = checksum(&c.hdrW, h, meta, payloads...)
	EncodeHeader(c.hdrW[:], h)
	bufs := append(c.bufs[:0], c.hdrW[:])
	if len(meta) > 0 {
		bufs = append(bufs, meta)
	}
	for _, p := range payloads {
		if len(p) > 0 {
			bufs = append(bufs, p)
		}
	}
	if c.CorruptNext {
		c.CorruptNext = false
		// Flip a byte of the last checksummed section, in a copy: a payload
		// slice is the caller's (a retry resends it) and must stay intact.
		for i := len(bufs) - 1; i > 0; i-- {
			if len(bufs[i]) == 0 {
				continue
			}
			cp := append([]byte(nil), bufs[i]...)
			cp[len(cp)/2] ^= 0xff
			bufs[i] = cp
			break
		}
	}
	// Keep the scatter/gather list's backing array for the next frame
	// (WriteTo re-slices its receiver as it consumes entries: it consumes
	// c.out, a field, as a local's address would escape), and drop the
	// payload references so a sent buffer is not pinned past its frame.
	c.bufs, c.out = bufs, bufs
	_, err := c.out.WriteTo(c.w)
	clear(c.bufs)
	c.bufs, c.out = c.bufs[:0], nil
	return err
}

// ReadFrame reads one frame. The meta slice is valid only until the next
// ReadFrame (it lives in the Conn's scratch buffer); the payload slice is
// drawn from blockpool and becomes the caller's — to blockpool.Put after
// its last read, or to hand on with that duty. A checksum mismatch returns
// ErrChecksum with the frame fully consumed, so the stream stays aligned
// and the connection can answer with an error instead of dying.
func (c *Conn) ReadFrame() (Header, []byte, []byte, error) {
	if _, err := io.ReadFull(c.br, c.hdrR[:]); err != nil {
		return Header{}, nil, nil, err
	}
	h, err := DecodeHeader(c.hdrR[:])
	if err != nil {
		return Header{}, nil, nil, err
	}
	if cap(c.meta) < int(h.MetaLen) {
		c.meta = make([]byte, h.MetaLen)
	}
	meta := c.meta[:h.MetaLen]
	if _, err := io.ReadFull(c.br, meta); err != nil {
		return Header{}, nil, nil, fmt.Errorf("wire: meta section: %w", err)
	}
	var payload []byte
	if h.PayloadLen > 0 {
		payload = blockpool.Get(int(h.PayloadLen))
		if _, err := io.ReadFull(c.br, payload); err != nil {
			blockpool.Put(payload)
			return Header{}, nil, nil, fmt.Errorf("wire: payload section: %w", err)
		}
	}
	if crc := checksum(&c.hdrR, h, meta, payload); crc != h.CRC {
		blockpool.Put(payload)
		return h, nil, nil, fmt.Errorf("%w: op %d: computed %08x, header %08x", ErrChecksum, h.Op, crc, h.CRC)
	}
	return h, meta, payload, nil
}

// AppendUvarint appends v varint-encoded.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendInt appends v zigzag-varint-encoded (negative values stay short).
func AppendInt(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Reader decodes a meta section. Errors are sticky: after the first
// malformed field every subsequent read returns a zero value, and Err
// reports what went wrong — callers validate once at the end.
type Reader struct {
	b   []byte
	err error
}

// NewReader wraps a meta section.
func NewReader(b []byte) *Reader {
	return &Reader{b: b}
}

// Reset points the reader at a new meta section, clearing any sticky
// error. Value-typed Readers reset in place keep per-frame decodes off the
// heap.
func (r *Reader) Reset(b []byte) {
	r.b, r.err = b, nil
}

// Err reports the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Len reports the remaining undecoded bytes.
func (r *Reader) Len() int { return len(r.b) }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrTruncated, what)
	}
}

// Fail poisons the reader with a caller-detected structural error (a count
// field that overruns the section, say), so Err reports it like any other
// malformed field.
func (r *Reader) Fail(what string) { r.fail(what) }

// Uvarint reads one varint-encoded uint64.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads one zigzag-varint-encoded int64.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// String reads one length-prefixed string (copying out of the section).
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail("string body")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}
