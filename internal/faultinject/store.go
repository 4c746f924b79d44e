package faultinject

import (
	"context"

	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
)

// Store wraps an iostore.Backend with fault injection on the write and
// read paths. The node runtime and NDP engine drain through the wrapper
// exactly as they would through the real store, so injected failures
// exercise the same abort/rollback/retry code paths a real device or
// network fault would. Wrapping a shardstore replica (rather than the
// shardstore itself) lets a chaos run stall or fail exactly one replica
// while the others stay healthy.
//
// Site behavior, per block:
//
//   - store.putblock: ModeErr fails the write outright; ModeTorn writes a
//     truncated prefix of the block and then fails (a torn object the abort
//     path must clean up); ModeCorrupt flips a payload byte and reports
//     success (silent damage caught only by validation); ModeStall sleeps
//     Delay first (an NDP drain stall), then writes normally.
//   - store.get: ModeErr fails the read; ModeTorn truncates the block;
//     ModeCorrupt flips a byte of the fetched block in place (GetBlock's
//     caller owns it); ModeStall delays the read.
//
// Put, Get, Stat and Latest are iostore's functions over the wrapper, so a
// whole-object write meets the store.putblock rules block by block and a
// whole-object read the store.get rules, as drains and restores do. The
// metadata operations (StatBlocks, IDs, Keys, Delete) pass through untouched:
// sabotaging the rollback path itself would make every chaos test vacuously
// "pass" by leaking.
type Store struct {
	inner iostore.Backend
	in    *Injector
}

// WrapStore wraps inner with the injector's store.* rules. A nil injector
// returns a transparent wrapper.
func WrapStore(inner iostore.Backend, in *Injector) *Store {
	return &Store{inner: inner, in: in}
}

var _ iostore.Backend = (*Store)(nil)

// Instrument forwards to the inner store when it is instrumentable, so
// wrapping does not hide store metrics.
func (s *Store) Instrument(r *metrics.Registry) {
	iostore.Instrument(s.inner, r)
}

// Put implements iostore.Backend with iostore.Put.
func (s *Store) Put(ctx context.Context, o iostore.Object) error { return iostore.Put(ctx, s, o) }

// PutBlock implements iostore.Backend.
func (s *Store) PutBlock(ctx context.Context, key iostore.Key, meta iostore.Object, index int, block []byte) error {
	d, ok := s.in.Decide(SiteStorePutBlock, key.Rank)
	if !ok {
		return s.inner.PutBlock(ctx, key, meta, index, block)
	}
	switch d.Mode {
	case ModeStall:
		s.in.StallCtx(ctx, d)
		return s.inner.PutBlock(ctx, key, meta, index, block)
	case ModeCorrupt:
		return s.inner.PutBlock(ctx, key, meta, index, flipByte(block))
	case ModeTorn:
		if len(block) > 1 {
			if err := s.inner.PutBlock(ctx, key, meta, index, block[:len(block)/2]); err != nil {
				return err
			}
		}
		return d.Err
	default:
		return d.Err
	}
}

// Get implements iostore.Backend with iostore.Get.
func (s *Store) Get(ctx context.Context, key iostore.Key) (iostore.Object, error) {
	return iostore.Get(ctx, s, key)
}

// GetBlock implements iostore.Backend under the store.get rules.
func (s *Store) GetBlock(ctx context.Context, key iostore.Key, index int) ([]byte, error) {
	d, ok := s.in.Decide(SiteStoreGet, key.Rank)
	if !ok {
		return s.inner.GetBlock(ctx, key, index)
	}
	switch d.Mode {
	case ModeStall:
		s.in.StallCtx(ctx, d)
		return s.inner.GetBlock(ctx, key, index)
	case ModeCorrupt:
		b, err := s.inner.GetBlock(ctx, key, index)
		if err == nil && len(b) > 0 {
			b[len(b)/2] ^= 0xff
		}
		return b, err
	case ModeTorn:
		b, err := s.inner.GetBlock(ctx, key, index)
		if err != nil {
			return nil, err
		}
		if len(b) > 1 {
			b = b[:len(b)/2]
		}
		return b, nil
	default:
		return nil, d.Err
	}
}

// StatBlocks implements iostore.Backend (pass-through, like the other
// metadata operations).
func (s *Store) StatBlocks(ctx context.Context, key iostore.Key) (iostore.Object, int, bool, error) {
	return s.inner.StatBlocks(ctx, key)
}

// Delete implements iostore.Backend (pass-through).
func (s *Store) Delete(ctx context.Context, key iostore.Key) error {
	return s.inner.Delete(ctx, key)
}

// Stat implements iostore.Backend with iostore.Stat.
func (s *Store) Stat(ctx context.Context, key iostore.Key) (iostore.Object, bool, error) {
	return iostore.Stat(ctx, s, key)
}

// IDs implements iostore.Backend (pass-through).
func (s *Store) IDs(ctx context.Context, job string, rank int) ([]uint64, error) {
	return s.inner.IDs(ctx, job, rank)
}

// Latest implements iostore.Backend with iostore.Latest.
func (s *Store) Latest(ctx context.Context, job string, rank int) (uint64, bool, error) {
	return iostore.Latest(ctx, s, job, rank)
}

// Keys implements iostore.Backend (pass-through; the mover's faults are
// injected via Injector.ShardMoveHook, not the enumeration).
func (s *Store) Keys(ctx context.Context) ([]iostore.Key, error) {
	return s.inner.Keys(ctx)
}

// flipByte returns a copy of b with its middle byte inverted.
func flipByte(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	cp := append([]byte(nil), b...)
	cp[len(cp)/2] ^= 0xff
	return cp
}
