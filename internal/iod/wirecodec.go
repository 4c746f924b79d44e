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
// Block payloads never enter the meta section. A request frame's payload is
// either the single PutBlock block, or (for whole-object Put) every object
// block concatenated, with the per-block lengths coded in the meta section;
// response frames mirror that for GetBlock and Get. The sender passes the
// block slices straight to Conn.WriteFrame's scatter/gather list, so the
// payload bytes are never copied or re-assembled on the way out.

// appendObjectMeta codes an object's metadata and block-length table (the
// block bytes travel in the frame payload).
func appendObjectMeta(b []byte, o *iostore.Object) []byte {
	b = wire.AppendString(b, o.Key.Job)
	b = wire.AppendInt(b, int64(o.Key.Rank))
	b = wire.AppendUvarint(b, o.Key.ID)
	b = wire.AppendString(b, o.Codec)
	b = wire.AppendInt(b, int64(o.CodecLevel))
	b = wire.AppendInt(b, o.OrigSize)
	b = wire.AppendUvarint(b, uint64(len(o.Meta)))
	for k, v := range o.Meta {
		b = wire.AppendString(b, k)
		b = wire.AppendString(b, v)
	}
	b = wire.AppendUvarint(b, uint64(len(o.Blocks)))
	for _, blk := range o.Blocks {
		b = wire.AppendUvarint(b, uint64(len(blk)))
	}
	return b
}

// readObjectMeta decodes appendObjectMeta's fields, returning the object
// (Blocks unset) and the block-length table for splitting the payload.
func readObjectMeta(r *wire.Reader) (iostore.Object, []int) {
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
	nBlocks := r.Uvarint()
	if nBlocks > uint64(r.Len()) { // every length costs >= 1 byte
		r.Fail("block count overruns section")
	}
	if nBlocks == 0 || r.Err() != nil {
		return o, nil
	}
	lens := make([]int, 0, nBlocks)
	for i := uint64(0); i < nBlocks && r.Err() == nil; i++ {
		lens = append(lens, int(r.Uvarint()))
	}
	return o, lens
}

// splitPayload slices payload into blocks by the length table, sharing the
// payload's backing array (no copies). The lengths must tile the payload
// exactly — a mismatch means a corrupt or hostile frame.
func splitPayload(payload []byte, lens []int) ([][]byte, error) {
	blocks := make([][]byte, len(lens))
	off := 0
	for i, n := range lens {
		// n > len(payload)-off, not off+n > len(payload): a hostile length
		// near MaxInt64 would wrap off+n negative and slip past the check
		// into a panicking slice expression. off never exceeds len(payload),
		// so the subtraction cannot overflow.
		if n < 0 || n > len(payload)-off {
			return nil, fmt.Errorf("iod: block-length table overruns payload (%d bytes)", len(payload))
		}
		blocks[i] = payload[off : off+n : off+n]
		off += n
	}
	if off != len(payload) {
		return nil, fmt.Errorf("iod: payload has %d bytes beyond the block-length table", len(payload)-off)
	}
	return blocks, nil
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

// requestPayload returns the frame payload slices for a request: the
// PutBlock block, or the whole-object blocks for Put.
func requestPayload(req *request) [][]byte {
	if len(req.Meta.Blocks) > 0 {
		return req.Meta.Blocks
	}
	if req.Block != nil {
		return [][]byte{req.Block}
	}
	return nil
}

// decodeRequestWire rebuilds a request from a received frame. Block slices
// alias the payload buffer: the caller owns recycling it once the request
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
	obj, lens := readObjectMeta(&r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("iod: request meta: %w", err)
	}
	req.Meta = obj
	if len(lens) > 0 {
		blocks, err := splitPayload(payload, lens)
		if err != nil {
			return nil, err
		}
		req.Meta.Blocks = blocks
	} else if h.PayloadLen > 0 {
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
// header flags; the GetBlock block and Get object blocks travel as payload.
func appendResponseMeta(b []byte, resp *response) []byte {
	b = wire.AppendString(b, resp.Err)
	b = appendObjectMeta(b, &resp.Object)
	b = wire.AppendUvarint(b, uint64(len(resp.IDs)))
	for _, id := range resp.IDs {
		b = wire.AppendUvarint(b, id)
	}
	b = wire.AppendUvarint(b, resp.Latest)
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

// responsePayload returns the frame payload slices for a response.
func responsePayload(resp *response) [][]byte {
	if len(resp.Object.Blocks) > 0 {
		return resp.Object.Blocks
	}
	if resp.Block != nil {
		return [][]byte{resp.Block}
	}
	return nil
}

// decodeResponseWire rebuilds a response from a received frame. The
// GetBlock block is the payload buffer itself and goes to GetBlock's caller,
// who owns it (iostore.Backend). A whole-object Get's blocks are capped
// sub-slices of it, and those nobody may release: a block's capacity can be
// a pool class while its neighbours are still being read, so that buffer is
// garbage once the application drops the object.
func decodeResponseWire(h wire.Header, meta, payload []byte) (*response, error) {
	var r wire.Reader
	r.Reset(meta)
	resp := &response{
		NotFound: h.Flags&wire.FlagNotFound != 0,
		OK:       h.Flags&wire.FlagOK != 0,
	}
	resp.Err = r.String()
	obj, lens := readObjectMeta(&r)
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
	resp.Latest = r.Uvarint()
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
	resp.Object = obj
	if len(lens) > 0 {
		blocks, err := splitPayload(payload, lens)
		if err != nil {
			return nil, err
		}
		resp.Object.Blocks = blocks
	} else if h.PayloadLen > 0 {
		resp.Block = payload
	}
	return resp, nil
}
