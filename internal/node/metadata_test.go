package node

import (
	"context"
	"errors"
	"testing"

	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// Regression tests for the MetadataFromMap bug: strconv.Atoi errors were
// discarded, so corrupt metadata silently decoded as rank 0 / step 0 and a
// restore could resurrect the wrong rank's state at the wrong step.

func TestMetadataFromRejectsCorrupt(t *testing.T) {
	cases := []map[string]string{
		{"job": "j", "rank": "banana", "step": "3"},
		{"job": "j", "rank": "0", "step": ""},
		{"job": "j"}, // both fields missing entirely
		{"job": "j", "rank": "0", "step": "3", "ckpt": "seven"},
	}
	for _, mm := range cases {
		if _, err := MetadataFromMap(mm); !errors.Is(err, ErrBadMetadata) {
			t.Errorf("MetadataFromMap(%v) err = %v, want ErrBadMetadata", mm, err)
		}
	}
	m, err := MetadataFromMap(map[string]string{"job": "j", "rank": "2", "step": "41", "ckpt": "9"})
	if err != nil || m.Rank != 2 || m.Step != 41 || m.Job != "j" || m.ID != 9 {
		t.Errorf("MetadataFromMap(valid) = %+v, %v", m, err)
	}
}

// FuzzMetadataFromMap: the decoder reads maps off NVM, a partner and the
// store. Arbitrary field strings never panic; an accepted map re-encodes
// through toMap and decodes to the same Metadata; a refused one is an
// ErrBadMetadata.
func FuzzMetadataFromMap(f *testing.F) {
	f.Add("j", "2", "41", "9", "", true, false)
	f.Add("job", "-1", "+7", "18446744073709551615", "8", true, true)
	f.Add("", "banana", "3", "", "", false, false)
	f.Add("j", "0", "3", "seven", "0", true, true)
	f.Add("j", "0", "3", "1", "-2", true, true)
	f.Fuzz(func(t *testing.T, job, rank, step, ckpt, shards string, hasCkpt, hasShards bool) {
		mm := map[string]string{"job": job, "rank": rank, "step": step}
		if hasCkpt {
			mm["ckpt"] = ckpt
		}
		if hasShards {
			mm["shards"] = shards
		}
		m, err := MetadataFromMap(mm)
		if err != nil {
			if !errors.Is(err, ErrBadMetadata) {
				t.Fatalf("MetadataFromMap(%q) err = %v, want ErrBadMetadata", mm, err)
			}
			return
		}
		again, err := MetadataFromMap(m.toMap(m.ID))
		if err != nil || again != m {
			t.Fatalf("MetadataFromMap(%q) = %+v; re-encoded it decodes to %+v, %v", mm, m, again, err)
		}
	})
}

func TestRestoreRejectsCorruptIOMetadata(t *testing.T) {
	n, store := newNode(t, nil)
	// An I/O object whose step field fails to parse — a torn metadata write
	// on the global store.
	err := store.Put(context.Background(), iostore.Object{
		Key:      iostore.Key{Job: "job", Rank: 0, ID: 1},
		OrigSize: 4,
		Blocks:   [][]byte{[]byte("data")},
		Meta:     map[string]string{"job": "job", "rank": "0", "step": "4x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := n.Restore(context.Background()); !errors.Is(err, ErrBadMetadata) {
		t.Errorf("Restore() err = %v, want ErrBadMetadata (pre-fix: succeeded as step 0)", err)
	}
	errs := n.Metrics().Counter("ndpcr_node_metadata_errors_total", "")
	if errs.Value() == 0 {
		t.Error("metadata error not counted")
	}
}

func TestRestoreCorruptLocalMetadataFallsThrough(t *testing.T) {
	n, store := newNode(t, func(c *Config) { c.DisableNDP = true })
	// A readable local checkpoint whose metadata is torn: the restore must
	// treat it as a level miss and fall through to global I/O, not return
	// rank-0/step-0 state.
	err := n.Device().Put(nvm.Checkpoint{
		ID:   7,
		Data: []byte("torn"),
		Meta: map[string]string{"job": "job", "rank": "?", "step": "1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	good := snapshot(1000, 9)
	if err := store.Put(context.Background(), iostore.Object{
		Key:      iostore.Key{Job: "job", Rank: 0, ID: 6},
		OrigSize: int64(len(good)),
		Blocks:   [][]byte{good},
		Meta:     Metadata{Job: "job", Rank: 0, Step: 12}.toMap(6),
	}); err != nil {
		t.Fatal(err)
	}
	data, meta, level, err := n.Restore(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if level != LevelIO || meta.Step != 12 || string(data) != string(good) {
		t.Errorf("restore served level=%v step=%d, want io/12", level, meta.Step)
	}
	errs := n.Metrics().Counter("ndpcr_node_metadata_errors_total", "")
	if errs.Value() != 1 {
		t.Errorf("metadata errors = %d, want 1", errs.Value())
	}
}
