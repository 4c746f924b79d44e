// Package huffman builds length-limited prefix codes for the entropy coders
// of this repo (deflate's three codes, bwz's one) without allocating.
package huffman

import "slices"

const (
	// MaxSymbols is the largest alphabet a Builder takes, MaxLimit the
	// longest code word it can be asked for.
	MaxSymbols = 288
	MaxLimit   = 31
)

// Builder is the scratch space of Lengths: no call allocates.
type Builder struct {
	order [MaxSymbols]uint64 // frequency<<16 | symbol of the used symbols, ascending
	node  [MaxSymbols]uint64 // Moffat–Katajainen's one working array
}

// Lengths sets lens[s] to the length of symbol s in a prefix code of at most
// limit bits that is optimal for freq, or as near as the limit allows; a
// symbol of frequency zero gets length zero. The code is complete, except
// that a lone used symbol gets one bit. The limit must leave room for every
// used symbol: 2^limit ≥ their number.
func (h *Builder) Lengths(lens []uint8, freq []uint32, limit int) {
	n := 0
	for s, f := range freq {
		lens[s] = 0
		if f != 0 {
			h.order[n] = uint64(f)<<16 | uint64(s)
			n++
		}
	}
	if n < 2 {
		if n == 1 {
			lens[h.order[0]&0xffff] = 1
		}
		return
	}
	order, a := h.order[:n], h.node[:n]
	slices.Sort(order)
	for i, o := range order {
		a[i] = o >> 16
	}

	// Moffat & Katajainen, "In-place calculation of minimum-redundancy
	// codes": over the sorted weights, pair the two lightest of the leaves
	// not yet taken and the internal nodes already made; a[next] becomes the
	// new node's weight, and a taken node's slot its parent's index.
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = uint64(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = uint64(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	// Parent indices to depths of the internal nodes, then to depths of the
	// leaves, both right to left: a[i] is the code length of order[i], and
	// the rarest symbol has the longest.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	avail, used, depth := 1, 0, uint64(0)
	for root, next := n-2, n-1; avail > 0; {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for ; avail > used; avail-- {
			a[next] = depth
			next--
		}
		avail, used, depth = 2*used, 0, depth+1
	}

	// Leaves deeper than limit move up to it, which oversubscribes the code
	// by `over` code words of limit bits. Each repair step hangs one of them
	// beside the deepest leaf above the limit, one level further down, and
	// frees exactly one such code word.
	var count [MaxLimit + 1]int
	for _, d := range a {
		count[min(int(d), limit)]++
	}
	over := -(1 << limit)
	for l := 1; l <= limit; l++ {
		over += count[l] << (limit - l)
	}
	for ; over > 0; over-- {
		l := limit - 1
		for count[l] == 0 {
			l--
		}
		count[l]--
		count[l+1] += 2
		count[limit]--
	}
	i := 0
	for l := limit; l > 0; l-- {
		for c := count[l]; c > 0; c-- {
			lens[order[i]&0xffff] = uint8(l)
			i++
		}
	}
}
