package compress_test

import (
	"bytes"
	"fmt"

	"ndpcr/internal/compress"
)

// ExampleLookup compresses checkpoint-like data with the paper's chosen
// codec, gzip(1), and round-trips it.
func ExampleLookup() {
	codec, err := compress.Lookup("gzip", 1)
	if err != nil {
		panic(err)
	}
	data := bytes.Repeat([]byte("checkpoint block "), 1000)
	comp, err := codec.Compress(nil, data)
	if err != nil {
		panic(err)
	}
	plain, err := codec.Decompress(nil, comp)
	if err != nil {
		panic(err)
	}
	fmt.Printf("round trip ok: %v, factor above 99%%: %v\n",
		bytes.Equal(plain, data), compress.Factor(len(data), len(comp)) > 0.99)
	// Output: round trip ok: true, factor above 99%: true
}
