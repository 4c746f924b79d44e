package compress

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ndpcr/internal/compress/inflate"
)

func sampleData() []byte {
	// Checkpoint-like mix: smooth float arrays, index arrays, zero pages.
	r := rand.New(rand.NewSource(42))
	var b []byte
	for i := 0; i < 2000; i++ {
		v := math.Float64bits(math.Sin(float64(i)/100) * 1e3)
		for s := 0; s < 64; s += 8 {
			b = append(b, byte(v>>s))
		}
	}
	b = append(b, make([]byte, 8192)...)
	for i := 0; i < 4000; i++ {
		b = append(b, byte(i), byte(i>>8), 0, 0)
	}
	noise := make([]byte, 4096)
	r.Read(noise)
	return append(b, noise...)
}

func TestRegistryHasStudySet(t *testing.T) {
	set := StudySet()
	if len(set) != 7 {
		t.Fatalf("study set has %d codecs, want 7", len(set))
	}
	wantIDs := []string{"gzip(1)", "gzip(6)", "bwz(1)", "bwz(9)", "lzr(1)", "lzr(6)", "lz4(1)"}
	for i, c := range set {
		if ID(c) != wantIDs[i] {
			t.Errorf("study set[%d] = %s, want %s", i, ID(c), wantIDs[i])
		}
	}
}

func TestLookupErrors(t *testing.T) {
	if _, err := Lookup("nope", 1); err == nil {
		t.Error("unknown codec accepted")
	}
	if _, err := Lookup("gzip", 99); err == nil {
		t.Error("unknown level accepted")
	}
	c, err := Lookup("lz4", 1)
	if err != nil || c.Name() != "lz4" {
		t.Errorf("Lookup(lz4,1) = %v, %v", c, err)
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	if len(all) < 7 {
		t.Fatalf("registry has %d codecs", len(all))
	}
	for i := 1; i < len(all); i++ {
		if ID(all[i-1]) >= ID(all[i]) {
			t.Errorf("All() not sorted: %s >= %s", ID(all[i-1]), ID(all[i]))
		}
	}
}

func TestEveryCodecRoundTrips(t *testing.T) {
	data := sampleData()
	for _, c := range All() {
		c := c
		t.Run(ID(c), func(t *testing.T) {
			t.Parallel()
			comp, err := c.Compress(nil, data)
			if err != nil {
				t.Fatalf("Compress: %v", err)
			}
			got, err := c.Decompress(nil, comp)
			if err != nil {
				t.Fatalf("Decompress: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("round trip mismatch")
			}
			// lz4 trades ratio for speed; everything else should do
			// noticeably better on checkpoint-like data.
			floor := 0.3
			if c.Name() == "lz4" {
				floor = 0.1
			}
			if Factor(len(data), len(comp)) < floor {
				t.Errorf("checkpoint-like data only compressed by %.1f%%",
					Factor(len(data), len(comp))*100)
			}
		})
	}
}

func TestEveryCodecRoundTripsEmpty(t *testing.T) {
	for _, c := range All() {
		comp, err := c.Compress(nil, nil)
		if err != nil {
			t.Fatalf("%s: Compress(nil): %v", ID(c), err)
		}
		got, err := c.Decompress(nil, comp)
		if err != nil {
			t.Fatalf("%s: Decompress: %v", ID(c), err)
		}
		if len(got) != 0 {
			t.Errorf("%s: decompressed empty input to %d bytes", ID(c), len(got))
		}
	}
}

func TestCodecConcurrency(t *testing.T) {
	// Codec contract: safe for concurrent use.
	data := sampleData()
	for _, c := range All() {
		c := c
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				comp, err := c.Compress(nil, data)
				if err != nil {
					t.Errorf("%s: %v", ID(c), err)
					return
				}
				got, err := c.Decompress(nil, comp)
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("%s: concurrent round trip failed", ID(c))
				}
			}()
		}
		wg.Wait()
	}
}

// TestGzipRefusesTrailingBytes: bytes after the final DEFLATE block — a torn
// or concatenated tail — are corrupt input. compress/flate's reader, which
// gzip decoded with before package inflate, stopped reading at the final
// block and returned such a block as if it were whole.
func TestGzipRefusesTrailingBytes(t *testing.T) {
	for _, level := range []int{1, 6} {
		c, _ := Lookup("gzip", level)
		valid, err := c.Compress(nil, sampleData())
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range map[string][]byte{
			"one more byte":    append(append([]byte(nil), valid...), 0),
			"the stream twice": append(append([]byte(nil), valid...), valid...),
		} {
			if out, err := c.Decompress(nil, src); !errors.Is(err, inflate.ErrCorrupt) || out != nil {
				t.Errorf("%s, %s: decompressed to %d bytes, err %v; want inflate.ErrCorrupt", ID(c), name, len(out), err)
			}
		}
	}
}

// TestGzipAppendsBehindPrefix: both directions size their output buffer
// themselves when dst's spare capacity is short, and keep what dst held.
func TestGzipAppendsBehindPrefix(t *testing.T) {
	c, _ := Lookup("gzip", 1)
	data, prefix := sampleData(), []byte("prefix")
	comp, err := c.Compress(append([]byte(nil), prefix...), data)
	if err != nil || !bytes.HasPrefix(comp, prefix) {
		t.Fatalf("Compress behind a prefix: err %v, prefix kept %v", err, bytes.HasPrefix(comp, prefix))
	}
	got, err := c.Decompress(append([]byte(nil), prefix...), comp[len(prefix):])
	if err != nil || !bytes.Equal(got, append(prefix, data...)) {
		t.Fatalf("Decompress behind a prefix: err %v", err)
	}
}

func TestFactor(t *testing.T) {
	if f := Factor(100, 25); f != 0.75 {
		t.Errorf("Factor(100,25) = %v", f)
	}
	if f := Factor(0, 10); f != 0 {
		t.Errorf("Factor(0,10) = %v", f)
	}
}

func TestIDFormat(t *testing.T) {
	c, _ := Lookup("gzip", 6)
	if ID(c) != "gzip(6)" {
		t.Errorf("ID = %q", ID(c))
	}
}
