package iod

import (
	"reflect"
	"testing"

	"ndpcr/internal/iod/wire"
	"ndpcr/internal/node/iostore"
)

// flatten concatenates payload slices the way the wire does.
func flatten(payloads [][]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = append(out, p...)
	}
	return out
}

// reqRoundTrip pushes a request through the codec and back.
func reqRoundTrip(t *testing.T, req *request) *request {
	t.Helper()
	meta := appendRequestMeta(nil, req)
	h := wire.Header{
		Op:         uint8(req.Op),
		Index:      uint32(int32(req.Index)),
		MetaLen:    uint32(len(meta)),
		PayloadLen: uint32(len(req.Block)),
	}
	got, err := decodeRequestWire(h, meta, req.Block)
	if err != nil {
		t.Fatalf("decodeRequestWire: %v", err)
	}
	return got
}

func TestRequestWireRoundTripAllOps(t *testing.T) {
	key := iostore.Key{Job: "sim", Rank: 3, ID: 17}
	meta := iostore.Object{
		Key:        key,
		Codec:      "zstd",
		CodecLevel: 3,
		OrigSize:   1 << 20,
		Meta:       map[string]string{"step": "400", "epoch": "7"},
	}
	reqs := []*request{
		{Op: opPutBlock, Key: key, Meta: meta, Index: 5, Block: []byte("payload!")},
		{Op: opDelete, Key: key},
		{Op: opIDs, Job: "sim", Rank: -1},
		{Op: opGetBlock, Key: key, Index: -2},
		{Op: opStatBlocks, Key: key},
		{Op: opKeys},
	}
	if len(reqs) != int(opMax) {
		t.Fatalf("%d ops round-tripped, the protocol has %d", len(reqs), opMax)
	}
	for _, req := range reqs {
		got := reqRoundTrip(t, req)
		if !reflect.DeepEqual(got, req) {
			t.Errorf("op %s roundtrip:\n got %+v\nwant %+v", opName(req.Op), got, req)
		}
	}
}

func TestResponseWireRoundTrip(t *testing.T) {
	resps := []*response{
		{},
		{Err: "disk full"},
		{NotFound: true, Err: "iostore: not found: sim/3/17"},
		{IDs: []uint64{1, 5, 44}},
		{OK: true, NumBlocks: 12, Object: iostore.Object{Key: iostore.Key{Job: "j", Rank: 1, ID: 2}, OrigSize: 77,
			Meta: map[string]string{"k": "v"}}},
		{Block: []byte("one block")},
		// The opKeys inventory rides as a trailing optional section.
		{Keys: []iostore.Key{{Job: "a", Rank: 0, ID: 1}, {Job: "b", Rank: -3, ID: 1 << 40}}},
	}
	for i, resp := range resps {
		meta := appendResponseMeta(nil, resp)
		payload := flatten(responsePayload(resp))
		h := wire.Header{
			Flags:      respFlags(resp),
			MetaLen:    uint32(len(meta)),
			PayloadLen: uint32(len(payload)),
		}
		got, err := decodeResponseWire(h, meta, payload)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("case %d roundtrip:\n got %+v\nwant %+v", i, got, resp)
		}
	}
}

func TestDecodeRejectsHostileCounts(t *testing.T) {
	// A tiny meta section claiming a huge map count must fail cleanly
	// instead of allocating by the claimed size.
	var meta []byte
	meta = wire.AppendString(meta, "j")
	meta = wire.AppendInt(meta, 0)
	meta = wire.AppendUvarint(meta, 1)
	meta = wire.AppendString(meta, "zstd")
	meta = wire.AppendInt(meta, 0)
	meta = wire.AppendInt(meta, 0)
	meta = wire.AppendUvarint(meta, 1<<40) // hostile meta-map count
	r := wire.NewReader(meta)
	if readObjectMeta(r); r.Err() == nil {
		t.Error("hostile meta-map count decoded without error")
	}
}

// One object codes to the same bytes every time, whatever order the map
// ranges in: the server's meta memo hits only on identical bytes. Coding
// into a buffer with room allocates nothing.
func TestObjectMetaCodesDeterministically(t *testing.T) {
	o := iostore.Object{
		Key:      iostore.Key{Job: "ns/run", Rank: 2, ID: 41},
		OrigSize: 16 << 10,
		Meta:     map[string]string{"job": "ns/run", "rank": "2", "step": "9", "ckpt": "41", "shards": "4"},
	}
	first := appendObjectMeta(nil, &o)
	buf := make([]byte, 0, 2*len(first))
	for i := 0; i < 100; i++ {
		if got := appendObjectMeta(buf[:0], &o); string(got) != string(first) {
			t.Fatalf("coding %d differs from the first:\n got %q\nwant %q", i, got, first)
		}
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { appendObjectMeta(buf[:0], &o) }); n != 0 {
			t.Errorf("appendObjectMeta allocated %.1f times a call, want 0", n)
		}
	}
}
