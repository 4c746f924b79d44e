// Package units provides byte-size, bandwidth, and duration quantities used
// throughout the checkpoint/restart model and runtime.
//
// All quantities are simple float64 or int64 wrappers so they can be used in
// arithmetic directly; the types exist to make function signatures
// self-documenting and to attach formatting helpers.
package units

import (
	"math"
	"strconv"
	"strings"
	"time"
)

// Bytes is a data size in bytes. Sizes in this model can exceed the int64
// range only at absurd scales (>8 EiB); int64 is sufficient for a 14 PB
// system and keeps arithmetic exact.
type Bytes int64

// Decimal (SI) size units. Storage and I/O bandwidth vendors quote decimal
// units, and the paper's arithmetic (e.g. 112 GB / 100 MB/s = 18.67 min)
// only reproduces with decimal units, so they are the default here.
const (
	KB Bytes = 1000
	MB Bytes = 1000 * KB
	GB Bytes = 1000 * MB
	TB Bytes = 1000 * GB
	PB Bytes = 1000 * TB
)

// Binary size units, for memory-like quantities.
const (
	KiB Bytes = 1024
	MiB Bytes = 1024 * KiB
	GiB Bytes = 1024 * MiB
	TiB Bytes = 1024 * GiB
)

// String formats the size with the largest decimal unit that keeps the
// mantissa >= 1, e.g. "112 GB", "1.244 PB".
func (b Bytes) String() string {
	neg := ""
	v := float64(b)
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v >= float64(PB):
		return neg + trimFloat(v/float64(PB)) + " PB"
	case v >= float64(TB):
		return neg + trimFloat(v/float64(TB)) + " TB"
	case v >= float64(GB):
		return neg + trimFloat(v/float64(GB)) + " GB"
	case v >= float64(MB):
		return neg + trimFloat(v/float64(MB)) + " MB"
	case v >= float64(KB):
		return neg + trimFloat(v/float64(KB)) + " KB"
	}
	return neg + strconv.FormatFloat(v, 'f', -1, 64) + " B"
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}

// Bandwidth is a data rate in bytes per second.
type Bandwidth float64

// Common bandwidth constructors.
const (
	MBps Bandwidth = 1e6
	GBps Bandwidth = 1e9
	TBps Bandwidth = 1e12
)

// String formats the bandwidth with an appropriate decimal unit.
func (bw Bandwidth) String() string {
	v := float64(bw)
	switch {
	case v >= float64(TBps):
		return trimFloat(v/float64(TBps)) + " TB/s"
	case v >= float64(GBps):
		return trimFloat(v/float64(GBps)) + " GB/s"
	case v >= float64(MBps):
		return trimFloat(v/float64(MBps)) + " MB/s"
	}
	return trimFloat(v) + " B/s"
}

// TimeToMove returns how long moving n bytes takes at this bandwidth.
// A zero or negative bandwidth returns an infinite duration, representing
// an unreachable storage level.
func (bw Bandwidth) TimeToMove(n Bytes) Seconds {
	if bw <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(n) / float64(bw))
}

// Seconds is a duration in seconds, as a float64 for model arithmetic.
// The analytical model and simulator work in continuous time; time.Duration's
// nanosecond integer granularity is both unnecessary and overflow-prone at
// week-long simulated horizons, so a float is used instead.
type Seconds float64

// Common durations.
const (
	Second Seconds = 1
	Minute Seconds = 60
	Hour   Seconds = 3600
	Day    Seconds = 86400
)

// Duration converts to a time.Duration (saturating at the int64 limits).
func (s Seconds) Duration() time.Duration {
	v := float64(s) * float64(time.Second)
	if v > math.MaxInt64 {
		return time.Duration(math.MaxInt64)
	}
	if v < math.MinInt64 {
		return time.Duration(math.MinInt64)
	}
	return time.Duration(v)
}

// String formats the duration compactly, e.g. "18.67 min", "9 s", "2.5 h".
func (s Seconds) String() string {
	v := float64(s)
	if math.IsInf(v, 1) {
		return "inf"
	}
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v >= float64(Day):
		return neg + trimFloat(v/float64(Day)) + " d"
	case v >= float64(Hour):
		return neg + trimFloat(v/float64(Hour)) + " h"
	case v >= float64(Minute):
		return neg + trimFloat(v/float64(Minute)) + " min"
	case v >= 1:
		return neg + trimFloat(v) + " s"
	case v >= 1e-3:
		return neg + trimFloat(v*1e3) + " ms"
	case v == 0:
		return "0 s"
	}
	return neg + trimFloat(v*1e6) + " us"
}
