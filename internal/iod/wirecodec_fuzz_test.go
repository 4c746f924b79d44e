package iod

import (
	"testing"

	"ndpcr/internal/iod/wire"
	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// The wire package's FuzzWireDecode covers the frame primitives; these two
// targets cover the layer above — the generic request/response codec that
// turns a verified frame's meta and payload sections into protocol structs.
// A frame can carry a valid CRC and still be hostile (a peer can *send*
// anything), so decodeRequestWire and decodeResponseWire must reject every
// malformed meta section or block-length table with an error, never a
// panic: the server decodes peer frames — and handles what decodes — on
// goroutines with no recover. So the request target also dispatches: every
// request that decodes goes through handleInto over a fresh in-memory store
// and must come back, whatever block index, key or op the frame carried.

// fuzzHeader reconstitutes the header fields a decoder actually consumes.
func fuzzHeader(op uint8, flags uint16, index uint32, meta, payload []byte) wire.Header {
	return wire.Header{
		Op:         op,
		Flags:      flags,
		Index:      index,
		MetaLen:    uint32(len(meta)),
		PayloadLen: uint32(len(payload)),
	}
}

func FuzzDecodeRequestWire(f *testing.F) {
	// Seed with every op's valid encoding, plus the crafted frame that used
	// to panic splitPayload: a block-length table entry near MaxInt64 that
	// wrapped the bounds check negative.
	obj := iostore.Object{
		Key:    iostore.Key{Job: "sim", Rank: 3, ID: 17},
		Codec:  "zstd",
		Meta:   map[string]string{"step": "400"},
		Blocks: [][]byte{[]byte("b0"), []byte("block-one")},
	}
	for _, req := range []*request{
		{Op: opPut, Meta: obj},
		{Op: opPutBlock, Key: obj.Key, Index: 5, Block: []byte("payload!")},
		{Op: opLatest, Job: "sim", Rank: -1},
	} {
		meta := appendRequestMeta(nil, req)
		f.Add(uint8(req.Op), uint32(int32(req.Index)), meta, flatten(requestPayload(req)))
	}
	var hostile []byte
	hostile = wire.AppendString(hostile, "j")      // req key job
	hostile = wire.AppendInt(hostile, 0)           // req key rank
	hostile = wire.AppendUvarint(hostile, 1)       // req key id
	hostile = wire.AppendString(hostile, "")       // req job
	hostile = wire.AppendInt(hostile, 0)           // req rank
	hostile = wire.AppendString(hostile, "j")      // obj key job
	hostile = wire.AppendInt(hostile, 0)           // obj key rank
	hostile = wire.AppendUvarint(hostile, 1)       // obj key id
	hostile = wire.AppendString(hostile, "")       // codec
	hostile = wire.AppendInt(hostile, 0)           // codec level
	hostile = wire.AppendInt(hostile, 8)           // orig size
	hostile = wire.AppendUvarint(hostile, 0)       // meta map
	hostile = wire.AppendUvarint(hostile, 2)       // block count
	hostile = wire.AppendUvarint(hostile, 1)       // block 0 length
	hostile = wire.AppendUvarint(hostile, 1<<63-1) // block 1 length: MaxInt64
	f.Add(uint8(opPut), uint32(0), hostile, []byte("payload"))
	// The frame that used to kill the server: a PutBlock at index -1.
	f.Add(uint8(opPutBlock), ^uint32(0), appendRequestMeta(nil, &request{Key: obj.Key}), []byte("payload!"))

	srv, err := NewServer(iostore.New(nvm.Pacer{}))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, op uint8, index uint32, meta, payload []byte) {
		h := fuzzHeader(op, 0, index, meta, payload)
		req, err := decodeRequestWire(h, meta, payload)
		if err != nil {
			return
		}
		if req == nil {
			t.Fatal("nil request with nil error")
		}
		srv.backing = iostore.New(nvm.Pacer{})
		var resp response
		srv.handleInto(req, &resp)
	})
}

func FuzzDecodeResponseWire(f *testing.F) {
	for _, resp := range []*response{
		{OK: true, Latest: 99, IDs: []uint64{1, 5, 44}},
		{Err: "disk full"},
		{Object: iostore.Object{
			Key:    iostore.Key{Job: "j", Rank: 0, ID: 9},
			Blocks: [][]byte{[]byte("aa"), []byte("bbb")},
		}},
	} {
		meta := appendResponseMeta(nil, resp)
		f.Add(uint16(respFlags(resp)), meta, flatten(responsePayload(resp)))
	}

	f.Fuzz(func(t *testing.T, flags uint16, meta, payload []byte) {
		h := fuzzHeader(0, flags, 0, meta, payload)
		resp, err := decodeResponseWire(h, meta, payload)
		if err == nil && resp == nil {
			t.Fatal("nil response with nil error")
		}
	})
}
