package iod

import (
	"fmt"

	"ndpcr/internal/iod/wire"
	"ndpcr/internal/node/iostore"
)

// This file maps the protocol's request/response structs onto wire
// frames. The encoding is generic rather than per-op: every field is
// varint- or length-prefix-coded in a fixed order, and absent fields cost a
// zero byte each — so one codec (and one fuzz surface) covers every
// operation.
//
// Block payloads never enter the meta section. A frame's payload is one
// block or none: PutBlock's request and GetBlock's reply carry one, every
// other frame none. The sender passes the block straight to
// Conn.WriteFrame's scatter/gather list, so its bytes are never copied on the
// way out.

// appendObjectMeta codes an object's metadata (its blocks travel one to a
// frame, as payload). The meta map's entries go in sorted key order, so one
// object always codes to the same bytes: the server's meta memo compares
// them frame to frame, and Go ranges over a map in a new order every time.
func appendObjectMeta(b []byte, o *iostore.Object) []byte {
	b = wire.AppendString(b, o.Key.Job)
	b = wire.AppendInt(b, int64(o.Key.Rank))
	b = wire.AppendUvarint(b, o.Key.ID)
	b = wire.AppendString(b, o.Codec)
	b = wire.AppendInt(b, int64(o.CodecLevel))
	b = wire.AppendInt(b, o.OrigSize)
	b = wire.AppendUvarint(b, uint64(len(o.Meta)))
	var spare [8]string // a checkpoint's meta has 4 keys: no allocation
	keys := spare[:0]
	for k := range o.Meta {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort: a handful of keys
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, k := range keys {
		b = wire.AppendString(b, k)
		b = wire.AppendString(b, o.Meta[k])
	}
	return b
}

// readObjectMeta decodes appendObjectMeta's fields.
func readObjectMeta(r *wire.Reader) iostore.Object {
	var o iostore.Object
	o.Key.Job = r.String()
	o.Key.Rank = int(r.Int())
	o.Key.ID = r.Uvarint()
	o.Codec = r.String()
	o.CodecLevel = int(r.Int())
	o.OrigSize = r.Int()
	nMeta := r.Uvarint()
	if nMeta > uint64(r.Len())/2 { // every map entry costs >= 2 bytes
		r.Fail("meta-map count overruns section")
	}
	if nMeta > 0 && r.Err() == nil {
		o.Meta = make(map[string]string, nMeta)
		for i := uint64(0); i < nMeta && r.Err() == nil; i++ {
			k := r.String()
			o.Meta[k] = r.String()
		}
	}
	return o
}

// appendRequestMeta codes a request's meta section. The op and block index
// travel in the frame header.
func appendRequestMeta(b []byte, req *request) []byte {
	b = wire.AppendString(b, req.Key.Job)
	b = wire.AppendInt(b, int64(req.Key.Rank))
	b = wire.AppendUvarint(b, req.Key.ID)
	b = wire.AppendString(b, req.Job)
	b = wire.AppendInt(b, int64(req.Rank))
	return appendObjectMeta(b, &req.Meta)
}

// decodeRequestWire rebuilds a request from a received frame. The block is
// the payload buffer itself: the caller owns recycling it once the request
// has been handled (every iostore.Backend copies block bytes it keeps).
func decodeRequestWire(h wire.Header, meta, payload []byte) (*request, error) {
	var r wire.Reader
	r.Reset(meta)
	req := &request{Op: op(h.Op), Index: int(int32(h.Index))}
	req.Key.Job = r.String()
	req.Key.Rank = int(r.Int())
	req.Key.ID = r.Uvarint()
	req.Job = r.String()
	req.Rank = int(r.Int())
	req.Meta = readObjectMeta(&r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("iod: request meta: %w", err)
	}
	if h.PayloadLen > 0 {
		req.Block = payload
	}
	return req, nil
}

// respFlags packs a response's booleans into header flags.
func respFlags(resp *response) uint16 {
	var f uint16
	if resp.NotFound {
		f |= wire.FlagNotFound
	}
	if resp.OK {
		f |= wire.FlagOK
	}
	return f
}

// appendResponseMeta codes a response's meta section. NotFound/OK travel as
// header flags; the GetBlock block travels as payload.
func appendResponseMeta(b []byte, resp *response) []byte {
	b = wire.AppendString(b, resp.Err)
	b = appendObjectMeta(b, &resp.Object)
	b = wire.AppendUvarint(b, uint64(len(resp.IDs)))
	for _, id := range resp.IDs {
		b = wire.AppendUvarint(b, id)
	}
	b = wire.AppendInt(b, int64(resp.NumBlocks))
	// The opKeys inventory rides as a trailing section written only when
	// non-empty; the decoder reads it only when bytes remain.
	if len(resp.Keys) > 0 {
		b = wire.AppendUvarint(b, uint64(len(resp.Keys)))
		for _, k := range resp.Keys {
			b = wire.AppendString(b, k.Job)
			b = wire.AppendInt(b, int64(k.Rank))
			b = wire.AppendUvarint(b, k.ID)
		}
	}
	return b
}

// responsePayload returns the frame payload slices for a response: the
// GetBlock block, or none.
func responsePayload(resp *response) [][]byte {
	if resp.Block != nil {
		return [][]byte{resp.Block}
	}
	return nil
}

// decodeResponseWire rebuilds a response from a received frame. The GetBlock
// block is the payload buffer itself and goes to GetBlock's caller, who owns
// it (iostore.Backend).
func decodeResponseWire(h wire.Header, meta, payload []byte) (*response, error) {
	var r wire.Reader
	r.Reset(meta)
	resp := &response{
		NotFound: h.Flags&wire.FlagNotFound != 0,
		OK:       h.Flags&wire.FlagOK != 0,
	}
	resp.Err = r.String()
	resp.Object = readObjectMeta(&r)
	nIDs := r.Uvarint()
	if nIDs > uint64(r.Len()) { // every ID costs >= 1 byte
		r.Fail("ID count overruns section")
	}
	if nIDs > 0 && r.Err() == nil {
		resp.IDs = make([]uint64, 0, nIDs)
		for i := uint64(0); i < nIDs && r.Err() == nil; i++ {
			resp.IDs = append(resp.IDs, r.Uvarint())
		}
	}
	resp.NumBlocks = int(r.Int())
	if r.Err() == nil && r.Len() > 0 {
		nKeys := r.Uvarint()
		if nKeys > uint64(r.Len())/3 { // every key costs >= 3 bytes
			r.Fail("key count overruns section")
		}
		if nKeys > 0 && r.Err() == nil {
			resp.Keys = make([]iostore.Key, 0, nKeys)
			for i := uint64(0); i < nKeys && r.Err() == nil; i++ {
				var k iostore.Key
				k.Job = r.String()
				k.Rank = int(r.Int())
				k.ID = r.Uvarint()
				resp.Keys = append(resp.Keys, k)
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("iod: response meta: %w", err)
	}
	if h.PayloadLen > 0 {
		resp.Block = payload
	}
	return resp, nil
}
