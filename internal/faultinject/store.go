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
// Site behavior:
//
//   - store.put / store.putblock: ModeErr fails the write outright;
//     ModeTorn writes a truncated prefix and then fails (a torn object the
//     abort path must clean up); ModeCorrupt flips a payload byte and
//     reports success (silent damage caught only by validation); ModeStall
//     sleeps Delay first (an NDP drain stall), then writes normally.
//   - store.get / store.getblock: ModeErr fails the read; ModeTorn drops
//     the object's last block (or truncates the block); ModeCorrupt flips a
//     byte of what is returned — a fetched block in place, since GetBlock's
//     caller owns it, a copy of one of Get's — ModeStall delays the read.
//
// Metadata operations (Stat, IDs, Latest, StatBlocks, Delete) pass through
// untouched: sabotaging the rollback path itself would make every chaos
// test vacuously "pass" by leaking.
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

// Put implements iostore.Backend.
func (s *Store) Put(ctx context.Context, o iostore.Object) error {
	d, ok := s.in.Decide(SiteStorePut, o.Key.Rank)
	if !ok {
		return s.inner.Put(ctx, o)
	}
	switch d.Mode {
	case ModeStall:
		s.in.StallCtx(ctx, d)
		return s.inner.Put(ctx, o)
	case ModeCorrupt:
		return s.inner.Put(ctx, corruptObject(o))
	case ModeTorn:
		// Land a truncated prefix of the object, then fail: the store is
		// left holding a torn write the caller must clean up.
		for i := 0; i < len(o.Blocks)/2; i++ {
			if err := s.inner.PutBlock(ctx, o.Key, o, i, o.Blocks[i]); err != nil {
				return err
			}
		}
		return d.Err
	default:
		return d.Err
	}
}

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

// Get implements iostore.Backend.
func (s *Store) Get(ctx context.Context, key iostore.Key) (iostore.Object, error) {
	d, ok := s.in.Decide(SiteStoreGet, key.Rank)
	if !ok {
		return s.inner.Get(ctx, key)
	}
	switch d.Mode {
	case ModeStall:
		s.in.StallCtx(ctx, d)
		return s.inner.Get(ctx, key)
	case ModeCorrupt:
		o, err := s.inner.Get(ctx, key)
		if err != nil {
			return o, err
		}
		return corruptObject(o), nil
	case ModeTorn:
		o, err := s.inner.Get(ctx, key)
		if err != nil {
			return o, err
		}
		if len(o.Blocks) > 0 {
			o.Blocks = o.Blocks[:len(o.Blocks)-1]
		}
		return o, nil
	default:
		return iostore.Object{}, d.Err
	}
}

// GetBlock implements iostore.Backend, sharing SiteStoreGet's rules so the
// streamed restore path sees the same read faults as the monolithic one.
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

// Stat implements iostore.Backend (pass-through).
func (s *Store) Stat(ctx context.Context, key iostore.Key) (iostore.Object, bool, error) {
	return s.inner.Stat(ctx, key)
}

// IDs implements iostore.Backend (pass-through).
func (s *Store) IDs(ctx context.Context, job string, rank int) ([]uint64, error) {
	return s.inner.IDs(ctx, job, rank)
}

// Latest implements iostore.Backend (pass-through).
func (s *Store) Latest(ctx context.Context, job string, rank int) (uint64, bool, error) {
	return s.inner.Latest(ctx, job, rank)
}

// Keys implements iostore.Backend (pass-through; the mover's faults are
// injected via Injector.ShardMoveHook, not the enumeration).
func (s *Store) Keys(ctx context.Context) ([]iostore.Key, error) {
	return s.inner.Keys(ctx)
}

// corruptObject returns o with one payload byte flipped in a copied block;
// the caller's and store's memory stay intact.
func corruptObject(o iostore.Object) iostore.Object {
	for i, b := range o.Blocks {
		if len(b) > 0 {
			blocks := append([][]byte(nil), o.Blocks...)
			blocks[i] = flipByte(b)
			o.Blocks = blocks
			return o
		}
	}
	return o
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
