package gateway

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"ndpcr/internal/node"
)

// An async save's store durability rides on replies the client receives
// anyway. A request names, in awaitHeader, the async IDs of its own run the
// client still waits on, as "rank:id" entries joined by commas ("0:7,1:7").
// The reply lists, in settledHeader, those of them that have settled, each
// as "rank:id=" and either the levels the durability endpoint reports,
// joined by '+' ("0:7=nvm+store"), or "failed". A pending ID is not listed,
// and neither is an ID no session can know. Either side skips an entry it
// cannot parse, and reads at most maxAwait entries.
const (
	awaitHeader   = "Ndpcr-Await"
	settledHeader = "Ndpcr-Settled"
)

// maxAwait bounds both sides: the entries read off one header, and the IDs
// a client awaits and the answers it keeps.
const maxAwait = 64

// atou parses a decimal number of at most 19 digits. Unlike strconv it
// allocates nothing on bad input, which any tenant can send.
func atou(s string) (uint64, bool) {
	if s == "" || len(s) > 19 {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + uint64(s[i]-'0')
	}
	return n, true
}

// parsePair parses "rank:id": a rank below 2³¹ and a nonzero ID.
func parsePair(s string) (rank int, id uint64, ok bool) {
	rs, ids, _ := strings.Cut(s, ":")
	r, okR := atou(rs)
	id, okID := atou(ids)
	if !okR || !okID || r >= 1<<31 || id == 0 {
		return 0, 0, false
	}
	return int(r), id, true
}

// entries calls fn with each of the first maxAwait comma-separated entries
// of a header value, trimmed.
func entries(v string, fn func(entry string)) {
	for read := 0; v != "" && read < maxAwait; read++ {
		var entry string
		entry, v, _ = strings.Cut(v, ",")
		fn(strings.TrimSpace(entry))
	}
}

// awaited is one awaitHeader entry on the gateway, with the session it
// names.
type awaited struct {
	rank  int
	id    uint64
	n     *node.Node
	first uint64 // n's first ID (Server.resynced)
}

// parseAwait appends the well-formed entries of an awaitHeader value to
// into, which has room for maxAwait.
func parseAwait(v string, into []awaited) []awaited {
	entries(v, func(entry string) {
		if rank, id, ok := parsePair(entry); ok {
			into = append(into, awaited{rank: rank, id: id})
		}
	})
	return into
}

// appendSettled appends one settledHeader entry, comma first unless b is
// empty.
func appendSettled(b []byte, rank int, d Durability) []byte {
	if len(b) > 0 {
		b = append(b, ',')
	}
	b = strconv.AppendInt(b, int64(rank), 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, d.ID, 10)
	if d.Failed {
		return append(b, "=failed"...)
	}
	sep := byte('=')
	for _, l := range [...]struct {
		name string
		on   bool
	}{{"erasure", d.Levels.Erasure}, {"nvm", d.Levels.NVM}, {"partner", d.Levels.Partner}, {"store", d.Levels.Store}} {
		if l.on {
			b = append(append(b, sep), l.name...)
			sep = '+'
		}
	}
	return b
}

// parseSettled parses one settledHeader entry: a failed ID, or the levels of
// a store-durable one.
func parseSettled(entry string) (rank int, d Durability, ok bool) {
	pair, levels, _ := strings.Cut(entry, "=")
	if rank, d.ID, ok = parsePair(pair); !ok {
		return 0, Durability{}, false
	}
	if levels == "failed" {
		d.Failed = true
		return rank, d, true
	}
	for levels != "" {
		var l string
		l, levels, _ = strings.Cut(levels, "+")
		switch l {
		case "erasure":
			d.Levels.Erasure = true
		case "nvm":
			d.Levels.NVM = true
		case "partner":
			d.Levels.Partner = true
		case "store":
			d.Levels.Store = true
		default:
			return 0, Durability{}, false
		}
	}
	return rank, d, d.Levels.Store
}

// ackKey names one checkpoint from the client's side.
type ackKey struct {
	ns, run string
	rank    int
	id      uint64
}

type ackEntry struct {
	ackKey
	d Durability
}

// acks is what a Client knows of its async saves' store durability: the IDs
// it got a 202 for and has not seen settled, and the store-durable answers
// replies brought that no Durability call has taken yet. Each holds at most
// maxAwait entries, oldest first; a full list drops its oldest, whose
// Durability call then asks the gateway as it would without the header.
type acks struct {
	mu      sync.Mutex
	awaits  []ackKey
	answers []ackEntry
}

func (a *acks) answer(k ackKey) int {
	return slices.IndexFunc(a.answers, func(e ackEntry) bool { return e.ackKey == k })
}

// forget drops everything known of one ID.
func (a *acks) forget(k ackKey) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.forgetLocked(k)
}

func (a *acks) forgetLocked(k ackKey) {
	if i := slices.Index(a.awaits, k); i >= 0 {
		a.awaits = slices.Delete(a.awaits, i, i+1)
	}
	if i := a.answer(k); i >= 0 {
		a.answers = slices.Delete(a.answers, i, i+1)
	}
}

// await records an ID acked at NVM durability. An answer kept for the same
// ID, a rolled-back ID given out again, is dropped.
func (a *acks) await(k ackKey) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.forgetLocked(k)
	if len(a.awaits) == maxAwait {
		a.awaits = slices.Delete(a.awaits, 0, 1)
	}
	a.awaits = append(a.awaits, k)
}

// appendHeader appends the awaitHeader line of a request to ns/run to a
// request head, nothing when the client awaits none of that run's IDs.
func (a *acks) appendHeader(h []byte, ns, run string) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	sep := "\r\n" + awaitHeader + ": "
	for _, w := range a.awaits {
		if w.ns == ns && w.run == run {
			h = append(h, sep...)
			h = strconv.AppendInt(h, int64(w.rank), 10)
			h = append(h, ':')
			h = strconv.AppendUint(h, w.id, 10)
			sep = ","
		}
	}
	return h
}

// settle takes a settledHeader value off a reply from ns/run. An entry for
// an ID the client awaits in that run ends the wait, and a store-durable one
// is kept as that ID's answer; the endpoint keeps a failure's text. Any
// other entry is skipped.
func (a *acks) settle(ns, run, v string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	entries(v, func(entry string) {
		rank, d, ok := parseSettled(entry)
		k := ackKey{ns: ns, run: run, rank: rank, id: d.ID}
		i := slices.Index(a.awaits, k)
		if !ok || i < 0 {
			return
		}
		a.awaits = slices.Delete(a.awaits, i, i+1)
		if d.Failed {
			return
		}
		if len(a.answers) == maxAwait {
			a.answers = slices.Delete(a.answers, 0, 1)
		}
		a.answers = append(a.answers, ackEntry{k, d})
	})
}

// take returns, and drops, the answer kept for k if it answers a Durability
// call waiting for level wait ("" for none).
func (a *acks) take(k ackKey, wait string) (Durability, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := a.answer(k)
	if i < 0 || wait != "" && !a.answers[i].d.Durable(wait) {
		return Durability{}, false
	}
	d := a.answers[i].d
	a.answers = slices.Delete(a.answers, i, i+1)
	return d, true
}
