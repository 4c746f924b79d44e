// Package compress defines the checkpoint-compression codec interface and a
// registry of the utilities studied in the paper's §5.
//
// The paper measures gzip, bzip2, xz, and lz4. Offline and stdlib-only, this
// repo provides:
//
//   - gzip(1): raw DEFLATE by this repo's one-shot encoder and decoder
//     (packages deflate and inflate), the level the runtime uses;
//   - gzip(6): raw DEFLATE by compress/flate's writer, for the study only
//     (same algorithm family, same level), read by inflate;
//   - lz4(1): a from-scratch implementation of the LZ4 block format;
//   - bwz(1), bwz(9): a from-scratch Burrows-Wheeler-transform compressor
//     (BWT + MTF + zero-run coding + canonical Huffman), the algorithm
//     family of bzip2, with the level selecting the block size exactly as
//     bzip2 does (level × 100 kB);
//   - lzr(1), lzr(6): a from-scratch LZ77 + adaptive-binary-range-coder
//     compressor, the algorithm family of xz/LZMA, with the level selecting
//     the match-search effort.
//
// Relative orderings (lz4 fastest/weakest … xz-class slowest/strongest) are
// what the paper's Table 2/3 analysis consumes, and those orderings are
// preserved by these same-family implementations.
package compress

import (
	"fmt"
	"sort"
)

// Codec is a one-shot block compressor. Implementations must be safe for
// concurrent use by multiple goroutines (the NDP engine compresses blocks
// on several cores at once).
type Codec interface {
	// Name returns the utility name, e.g. "gzip".
	Name() string
	// Level returns the compression level.
	Level() int
	// Compress appends the compressed form of src to dst and returns the
	// extended slice.
	Compress(dst, src []byte) ([]byte, error)
	// Decompress appends the decompressed form of src to dst and returns
	// the extended slice.
	Decompress(dst, src []byte) ([]byte, error)
}

// ID renders the paper's "utility(level)" notation for a codec.
func ID(c Codec) string { return fmt.Sprintf("%s(%d)", c.Name(), c.Level()) }

// Factor is the paper's compression-factor metric:
// 1 − compressed/uncompressed. Larger is better; 0 means incompressible.
func Factor(uncompressed, compressed int) float64 {
	if uncompressed <= 0 {
		return 0
	}
	return 1 - float64(compressed)/float64(uncompressed)
}

var registry = map[string]Codec{}

// Register adds a codec to the global registry. It panics on duplicates;
// registration happens at init time from this package only.
func Register(c Codec) {
	id := ID(c)
	if _, dup := registry[id]; dup {
		panic("compress: duplicate codec " + id)
	}
	registry[id] = c
}

// Lookup returns the codec registered under the given utility name and
// level, e.g. Lookup("gzip", 1).
func Lookup(name string, level int) (Codec, error) {
	c, ok := registry[fmt.Sprintf("%s(%d)", name, level)]
	if !ok {
		return nil, fmt.Errorf("compress: no codec %s(%d)", name, level)
	}
	return c, nil
}

// All returns every registered codec sorted by ID, the set the compression
// study sweeps.
func All() []Codec {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Codec, len(ids))
	for i, id := range ids {
		out[i] = registry[id]
	}
	return out
}

// StudySet returns the codecs in the order the paper's Table 2 lists them:
// gzip(1), gzip(6), bzip2-class(1), bzip2-class(9), xz-class(1),
// xz-class(6), lz4(1).
func StudySet() []Codec {
	order := []struct {
		name  string
		level int
	}{
		{"gzip", 1}, {"gzip", 6},
		{"bwz", 1}, {"bwz", 9},
		{"lzr", 1}, {"lzr", 6},
		{"lz4", 1},
	}
	out := make([]Codec, 0, len(order))
	for _, o := range order {
		if c, err := Lookup(o.name, o.level); err == nil {
			out = append(out, c)
		}
	}
	return out
}
