// Package iod implements the global I/O node as a network service: a TCP
// daemon exposing the iostore API over a request/response protocol, and a
// client that satisfies iostore.Backend so a node runtime (and its NDP
// drain engine) can target a remote I/O node instead of an in-process
// store.
//
// There is one wire codec (internal/iod/wire, protocol v5): length-prefixed
// little-endian binary frames with CRC32C checksums, pooled receive buffers,
// and scatter/gather sends — the zero-copy wire that lets a drain run at
// hardware speed. The first bytes on a connection are a frame; every header
// carries magic and version, and a peer speaking anything else is rejected
// with wire.ErrBadMagic or wire.ErrBadVersion and a closed socket. A
// connection is full duplex: it carries up to laneDepth exchanges at once,
// each reply matched to its request by the ID in the header's aux field.
//
// This is the substrate behind the paper's §4.2.2 requirement that "the
// NDP must be able to operate the relevant system code for running the
// network stack (e.g., TCP/IP) and other code necessary for interfacing
// with the remote file-system": with an iod store plugged into the node
// runtime, every drained block really does traverse a TCP connection.
package iod

import (
	"ndpcr/internal/blockpool"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
)

// op identifies a request type.
type op uint8

// Protocol operations: the block and listing methods of iostore.Backend. A
// whole-object Put, Get, Stat or Latest is the client's iostore function over
// these, so a frame carries one block or none. The values are the wire
// header's op byte.
const (
	opPutBlock op = iota + 1
	opDelete
	opIDs
	opGetBlock
	opStatBlocks
	// opKeys enumerates every key the backing store holds (the inventory
	// surface behind shardstore's restart-blind rebalance planner).
	opKeys

	// opMax is the highest valid op (metric array sizing).
	opMax = opKeys
)

// laneDepth bounds the exchanges one connection carries at once. The client
// queues a call only when every lane holds this many; the server stops
// reading a connection while this many of its requests are being handled, so
// a peer that ignores the bound meets TCP backpressure, not more goroutines.
const laneDepth = 16

// checksumErrPrefix opens the error the server returns when a received
// frame fails CRC verification — under request ID 0, since no field of a
// corrupt header can be trusted. The client maps it to a transport failure
// of the whole lane (every pending exchange redials and retries) rather
// than an application error: corruption on the wire must not fail a drain
// the way a full disk would. The string is part of the wire contract.
const checksumErrPrefix = "iod: payload checksum mismatch"

// opName labels operations in metric series.
func opName(o op) string {
	switch o {
	case opPutBlock:
		return "put_block"
	case opDelete:
		return "delete"
	case opIDs:
		return "ids"
	case opGetBlock:
		return "get_block"
	case opStatBlocks:
		return "stat_blocks"
	case opKeys:
		return "keys"
	}
	return "unknown"
}

// request is the decoded form of one call. Only the fields relevant to Op
// are populated.
type request struct {
	Op   op
	Key  iostore.Key
	Meta iostore.Object // PutBlock metadata
	// Index is PutBlock's block index (also GetBlock's).
	Index int
	// Block is PutBlock's payload.
	Block []byte
	// Job/Rank parameterize IDs.
	Job  string
	Rank int
}

// response is the decoded form of one result.
type response struct {
	// Err carries the remote error text ("" = success). iostore.ErrNotFound
	// is mapped by sentinel (NotFound) so errors.Is works across the wire.
	Err      string
	NotFound bool
	Object   iostore.Object
	OK       bool
	IDs      []uint64
	// Block is GetBlock's payload; NumBlocks is StatBlocks's block count.
	Block     []byte
	NumBlocks int
	// Keys is opKeys' inventory listing.
	Keys []iostore.Key
}

// unknownOpPrefix opens the server's reply to a frame whose op byte names no
// operation.
const unknownOpPrefix = "iod: unknown op"

// instrumentPool exposes blockpool's counts on r. The pool is the process's,
// and so are its series: every registry that asks reports the same numbers,
// fed by every user of the pool (wire receives, store copy-outs, codec
// buffers), so a second client or server on the registry takes nothing from
// the first. Sampled from the pool: two counters, which only rise, and the
// bytes it holds idle.
func instrumentPool(r *metrics.Registry) {
	r.CounterFunc("ndpcr_blockpool_hits_total", "block buffers served from the process-wide pool",
		func() uint64 { hit, _ := blockpool.Stats(); return hit })
	r.CounterFunc("ndpcr_blockpool_misses_total", "block buffers freshly allocated (pool empty or oversized)",
		func() uint64 { _, miss := blockpool.Stats(); return miss })
	r.GaugeFunc("ndpcr_blockpool_idle_bytes", "bytes of block buffers the process-wide pool holds idle, summed over size classes",
		func() float64 { return float64(blockpool.IdleBytes()) })
}
