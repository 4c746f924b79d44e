package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"slices"
	"sync"

	"ndpcr/internal/compress/deflate"
	"ndpcr/internal/compress/inflate"
)

// gzipCodec is raw DEFLATE. gzip(1), the level the runtime uses, is this
// repo's one-shot encoder and decoder (packages deflate and inflate): a block
// is always whole in memory, and a streaming writer or reader pays for
// generality that cannot be used. gzip(6) exists for the Table 2 study only
// and keeps compress/flate's writer; every level decodes with inflate. The
// paper's gzip measurements are DEFLATE-dominated (the gzip wrapper adds a
// fixed 18-byte header/trailer), so raw DEFLATE of the same class is the same
// algorithm at the same setting.
type gzipCodec struct {
	level int
	// writers is nil at level 1. Allocating a flate.Writer is expensive, and
	// its level is baked in: one pool per codec.
	writers *sync.Pool
}

func (c *gzipCodec) Name() string { return "gzip" }
func (c *gzipCodec) Level() int   { return c.level }

func (c *gzipCodec) Compress(dst, src []byte) ([]byte, error) {
	// One allocation when the input halves, as checkpoints do; the buffer
	// still grows on demand when it does not.
	dst = slices.Grow(dst, len(src)/2+1024)
	if c.writers == nil {
		return deflate.Encode(dst, src), nil
	}
	buf := bytes.NewBuffer(dst)
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
	Register(&gzipCodec{level: 1})
	Register(&gzipCodec{level: 6, writers: &sync.Pool{New: func() any {
		w, err := flate.NewWriter(io.Discard, 6)
		if err != nil {
			panic(fmt.Sprintf("compress: flate.NewWriter(6): %v", err)) // the level is valid by construction
		}
		return w
	}}})
}
