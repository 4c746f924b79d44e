package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"ndpcr/internal/compress/inflate"
)

// gzipCodec is raw DEFLATE: the standard library's writer, and this repo's
// one-shot reader (package inflate) — a block to decompress is always whole
// in memory, and a streaming reader pays for generality that cannot be used.
// The paper's gzip measurements are DEFLATE-dominated (the gzip wrapper adds
// a fixed 18-byte header/trailer), so compress/flate at the same level is the
// same algorithm at the same setting.
type gzipCodec struct {
	level int
	// flate.Writer allocation is expensive; pool per-codec since level is
	// baked into the writer.
	writers sync.Pool
}

func newGzipCodec(level int) *gzipCodec {
	c := &gzipCodec{level: level}
	c.writers.New = func() any {
		w, err := flate.NewWriter(io.Discard, level)
		if err != nil {
			// Levels are fixed at init time and valid by construction.
			panic(fmt.Sprintf("compress: flate.NewWriter(%d): %v", level, err))
		}
		return w
	}
	return c
}

func (c *gzipCodec) Name() string { return "gzip" }
func (c *gzipCodec) Level() int   { return c.level }

func (c *gzipCodec) Compress(dst, src []byte) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	// One allocation when the input halves, as checkpoints do; the buffer
	// still grows on demand when it does not.
	buf.Grow(len(src)/2 + 1024)
	w := c.writers.Get().(*flate.Writer)
	defer c.writers.Put(w)
	w.Reset(buf)
	if _, err := w.Write(src); err != nil {
		return nil, fmt.Errorf("compress: gzip(%d) write: %w", c.level, err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("compress: gzip(%d) close: %w", c.level, err)
	}
	return buf.Bytes(), nil
}

func (c *gzipCodec) Decompress(dst, src []byte) ([]byte, error) {
	out, err := inflate.Decode(dst, src)
	if err != nil {
		return nil, fmt.Errorf("compress: gzip(%d) decompress: %w", c.level, err)
	}
	return out, nil
}

func init() {
	Register(newGzipCodec(1))
	Register(newGzipCodec(6))
}
