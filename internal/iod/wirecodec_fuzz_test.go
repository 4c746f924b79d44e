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
// malformed meta section with an error, never a panic: the server decodes
// peer frames — and handles what decodes — on goroutines with no recover. So
// the request target also dispatches: every request that decodes goes through
// handleInto over a fresh in-memory store and must come back, whatever block
// index, key or op the frame carried.

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
	// Seed with valid encodings of the ops that carry a block, a key and a
	// listing, plus two crafted frames: a meta-map count far past what the
	// section holds, and the PutBlock at index -1 that used to kill the
	// server.
	key := iostore.Key{Job: "sim", Rank: 3, ID: 17}
	meta := iostore.Object{Key: key, Codec: "zstd", Meta: map[string]string{"step": "400"}}
	for _, req := range []*request{
		{Op: opPutBlock, Key: key, Meta: meta, Index: 5, Block: []byte("payload!")},
		{Op: opGetBlock, Key: key, Index: 1},
		{Op: opIDs, Job: "sim", Rank: -1},
	} {
		f.Add(uint8(req.Op), uint32(int32(req.Index)), appendRequestMeta(nil, req), req.Block)
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
	hostile = wire.AppendUvarint(hostile, 1<<63-1) // meta-map count
	f.Add(uint8(opPutBlock), uint32(0), hostile, []byte("payload"))
	f.Add(uint8(opPutBlock), ^uint32(0), appendRequestMeta(nil, &request{Key: key}), []byte("payload!"))

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
		{IDs: []uint64{1, 5, 44}},
		{Err: "disk full"},
		{OK: true, NumBlocks: 2, Object: iostore.Object{Key: iostore.Key{Job: "j", Rank: 0, ID: 9}, OrigSize: 5}},
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
