package iod

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"ndpcr/internal/blockpool"
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

// reqRoundTrip pushes a request through the v2 codec and back.
func reqRoundTrip(t *testing.T, req *request) *request {
	t.Helper()
	meta := appendRequestMeta(nil, req)
	payloads := requestPayload(req)
	h := wire.Header{
		Op:         uint8(req.Op),
		Index:      uint32(int32(req.Index)),
		MetaLen:    uint32(len(meta)),
		PayloadLen: uint32(len(flatten(payloads))),
	}
	got, err := decodeRequestWire(h, meta, flatten(payloads))
	if err != nil {
		t.Fatalf("decodeRequestWire: %v", err)
	}
	return got
}

func TestRequestWireRoundTripAllOps(t *testing.T) {
	obj := iostore.Object{
		Key:        iostore.Key{Job: "sim", Rank: 3, ID: 17},
		Codec:      "zstd",
		CodecLevel: 3,
		OrigSize:   1 << 20,
		Meta:       map[string]string{"step": "400", "epoch": "7"},
		Blocks:     [][]byte{[]byte("block-zero"), []byte("b1"), {}, []byte("three")},
	}
	reqs := []*request{
		{Op: opPut, Meta: obj},
		{Op: opPutBlock, Key: obj.Key, Meta: iostore.Object{Key: obj.Key, OrigSize: 10}, Index: 5, Block: []byte("payload!")},
		{Op: opDelete, Key: obj.Key},
		{Op: opGet, Key: obj.Key},
		{Op: opStat, Key: obj.Key},
		{Op: opIDs, Job: "sim", Rank: 3},
		{Op: opLatest, Job: "sim", Rank: -1},
		{Op: opGetBlock, Key: obj.Key, Index: -2},
		{Op: opStatBlocks, Key: obj.Key},
		{Op: opKeys},
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
		{OK: true, Latest: 99},
		{IDs: []uint64{1, 5, 44}},
		{OK: true, NumBlocks: 12, Object: iostore.Object{Key: iostore.Key{Job: "j", Rank: 1, ID: 2}, OrigSize: 77}},
		{Block: []byte("one block")},
		{Object: iostore.Object{
			Key:    iostore.Key{Job: "j", Rank: 0, ID: 9},
			Meta:   map[string]string{"k": "v"},
			Blocks: [][]byte{[]byte("aa"), []byte("bbb")},
		}},
		// The opKeys inventory rides as a trailing optional section.
		{Keys: []iostore.Key{{Job: "a", Rank: 0, ID: 1}, {Job: "b", Rank: -3, ID: 1 << 40}}},
	}
	for i, resp := range resps {
		meta := appendResponseMeta(nil, resp)
		payloads := responsePayload(resp)
		h := wire.Header{
			Flags:      respFlags(resp),
			MetaLen:    uint32(len(meta)),
			PayloadLen: uint32(len(flatten(payloads))),
		}
		got, err := decodeResponseWire(h, meta, flatten(payloads))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("case %d roundtrip:\n got %+v\nwant %+v", i, got, resp)
		}
	}
}

func TestSplitPayloadRejectsMismatch(t *testing.T) {
	payload := []byte("0123456789")
	if _, err := splitPayload(payload, []int{4, 99}); err == nil {
		t.Error("overrunning length table accepted")
	}
	if _, err := splitPayload(payload, []int{4, 4}); err == nil {
		t.Error("under-covering length table accepted")
	}
	if _, err := splitPayload(payload, []int{-1, 11}); err == nil {
		t.Error("negative length accepted")
	}
	// Regression: a length near MaxInt64 used to wrap off+n negative,
	// slip past the bounds check, and panic the slice expression.
	if _, err := splitPayload(payload, []int{4, math.MaxInt64}); err == nil {
		t.Error("overflowing length accepted")
	}
	if _, err := splitPayload(payload, []int{math.MaxInt64, math.MaxInt64}); err == nil {
		t.Error("overflowing length accepted at offset 0")
	}
	blocks, err := splitPayload(payload, []int{4, 0, 6})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blocks[0], []byte("0123")) || len(blocks[1]) != 0 || !bytes.Equal(blocks[2], []byte("456789")) {
		t.Errorf("split wrong: %q", blocks)
	}
}

func TestDecodeRejectsHostileCounts(t *testing.T) {
	// A tiny meta section claiming a huge map/ID/block count must fail
	// cleanly instead of allocating by the claimed size.
	var meta []byte
	meta = wire.AppendString(meta, "j")
	meta = wire.AppendInt(meta, 0)
	meta = wire.AppendUvarint(meta, 1)
	meta = wire.AppendString(meta, "zstd")
	meta = wire.AppendInt(meta, 0)
	meta = wire.AppendInt(meta, 0)
	meta = wire.AppendUvarint(meta, 0)
	meta = wire.AppendUvarint(meta, 1<<40) // hostile meta-map count
	r := wire.NewReader(meta)
	if _, _ = readObjectMeta(r); r.Err() == nil {
		t.Error("hostile meta-map count decoded without error")
	}
}

// TestWholeObjectBlocksStayOutOfThePool: a whole-object Get's blocks are
// sub-slices of one pooled receive buffer, which the application may read for
// as long as it likes, so no block of it may ever be recycled. splitPayload
// caps every block at its own length — a block cannot be stretched over its
// neighbours, and Put drops one of odd length. (A block that is itself a pool
// class long would pass Put's check; that nobody releases a Get block is the
// rule, and the capacity check only its backstop.)
func TestWholeObjectBlocksStayOutOfThePool(t *testing.T) {
	blocks := [][]byte{bytes.Repeat([]byte{1}, 1000), bytes.Repeat([]byte{2}, 3000), bytes.Repeat([]byte{3}, 96)}
	resp := &response{Object: iostore.Object{Key: iostore.Key{Job: "j", ID: 1}, Blocks: blocks}}
	payload := blockpool.Get(4096) // as wire.Conn.ReadFrame receives it
	copy(payload, flatten(blocks))
	want := append([]byte(nil), payload...)
	meta := appendResponseMeta(nil, resp)
	got, err := decodeResponseWire(wire.Header{Op: uint8(opGet), PayloadLen: uint32(len(payload))}, meta, payload)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got.Object.Blocks {
		if cap(b) != len(b) || len(b) != len(blocks[i]) {
			t.Errorf("block %d: len %d cap %d, want both %d: it reaches into its neighbour", i, len(b), cap(b), len(blocks[i]))
		}
		blockpool.Put(b) // what no caller may do; it must not take
	}
	for _, n := range []int{96, 1000, 3000, 4096} {
		g := blockpool.Get(n)
		for i := range g {
			g[i] = 0xEE
		}
	}
	if !bytes.Equal(payload, want) {
		t.Error("a block of a whole-object Get entered the pool: the application's object changed under it")
	}
}
