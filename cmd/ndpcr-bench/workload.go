package main

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"time"
)

// workload is one row of the benchmark: a closed loop of rounds, each a
// save phase, a cold restore phase and an untimed delete. The fields are
// the input properties the stack's behaviour depends on; nothing in the
// stack under test reads the name.
type workload struct {
	name string
	why  string

	sessions int // ranks the client cycles over
	payload  int // bytes per checkpoint
	gzip     bool
	block    int           // drain/restore block size
	pace     time.Duration // backing-store sleep per block op (0 = unpaced)
	async    bool          // durable=nvm saves, 202 ack
	perRound int           // saves per round
}

// The four workloads. Payload, block and pacing values are ISSUE 13's;
// perRound is sized so one round takes 1-2 s on the 2-vCPU reference host:
// a round is the epoch the quietest third of which is reported (see
// quietShare), and the warm-up round of every set-up. No workload drives
// the stack with more than one client: the stack's own goroutines keep the
// second vCPU busy, and a load that needs both vCPUs all the time measures
// how much of them the shared host hands out that minute (two svc clients
// spread three times as wide as one, run alternately).
var workloads = []workload{
	{
		name:     "bulk_raw",
		why:      "32 MiB raw checkpoints, unpaced: wire, replica fan-out, copies and allocation do all the work; compress does none",
		sessions: 1, payload: 32 << 20, block: 1 << 20, perRound: 8,
	},
	{
		name:     "bulk_gzip",
		why:      "same payloads through gzip(1): compress and decompress dominate and the wire carries half the bytes; must not move with bulk_raw",
		sessions: 1, payload: 32 << 20, gzip: true, block: 1 << 20, perRound: 2,
	},
	{
		name:     "paced_small_blocks",
		why:      "8 MiB in 64 KiB blocks over stores that sleep 2 ms per block op: CPU idle, round trips times window decide everything",
		sessions: 1, payload: 8 << 20, block: 64 << 10, pace: 2 * time.Millisecond, perRound: 8,
	},
	{
		name:     "svc_async_small",
		why:      "1 client of 16 KiB async (202) saves over 4 sessions: ack, tracker, NVM admission, session map and per-request HTTP cost dominate, not bandwidth",
		sessions: 4, payload: 16 << 10, block: 1 << 20, async: true, perRound: 3000,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// payload is one seeded input buffer and the checksum every restore of it
// must reproduce.
type payload struct {
	data []byte
	crc  uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const payloadsPerRun = 8

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// genPayloads builds the run's distinct input buffers from the seed alone:
// a smooth float64 field (two sines, 16 mantissa bits kept) with 11 % of
// the words replaced by noise. The two constants were tuned once so that
// gzip(1) over 1 MiB blocks stores about 0.47 bytes per byte; the periods
// are fixed and only phases and noise are seeded, so every seed compresses
// alike and runs with different seeds stay comparable.
func genPayloads(seed uint64, size int) []payload {
	const (
		keepMantissa = 16
		noiseShare   = 0.11
	)
	mask := ^(uint64(1)<<(52-keepMantissa) - 1)
	threshold := uint64(math.Ldexp(noiseShare, 64))
	c1, s1 := math.Cos(2*math.Pi/701), math.Sin(2*math.Pi/701)
	c2, s2 := math.Cos(2*math.Pi/43), math.Sin(2*math.Pi/43)

	out := make([]payload, payloadsPerRun)
	for i := range out {
		state := seed*0x2545f4914f6cdd1d + uint64(i)
		p1 := 2 * math.Pi * float64(splitmix64(&state)>>11) / (1 << 53)
		p2 := 2 * math.Pi * float64(splitmix64(&state)>>11) / (1 << 53)
		x1, y1 := math.Cos(p1), math.Sin(p1)
		x2, y2 := math.Cos(p2), math.Sin(p2)
		data := make([]byte, size)
		for off := 0; off+8 <= size; off += 8 {
			x1, y1 = x1*c1-y1*s1, x1*s1+y1*c1
			x2, y2 = x2*c2-y2*s2, x2*s2+y2*c2
			word := math.Float64bits(1000+100*y1+3*y2) & mask
			if splitmix64(&state) < threshold {
				word = splitmix64(&state)
			}
			binary.LittleEndian.PutUint64(data[off:], word)
		}
		out[i] = payload{data: data, crc: crc32.Checksum(data, castagnoli)}
	}
	return out
}
