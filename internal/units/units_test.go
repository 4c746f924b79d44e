package units

import (
	"math"
	"testing"
	"time"
)

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{1000, "1 KB"},
		{112 * GB, "112 GB"},
		{14 * PB, "14 PB"},
		{1500 * MB, "1.5 GB"},
		{-2 * GB, "-2 GB"},
		{1244 * TB, "1.244 PB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestBandwidthTimeToMove(t *testing.T) {
	// The paper's own arithmetic: 112 GB at 100 MB/s is ~18.67 minutes.
	got := Bandwidth(100 * MBps).TimeToMove(112 * GB)
	if math.Abs(float64(got)-1120) > 1e-9 {
		t.Errorf("112GB @ 100MB/s = %v s, want 1120 s", float64(got))
	}
	// 112 GB at 12.44 GB/s is ~9 s.
	got = Bandwidth(12.44 * float64(GBps)).TimeToMove(112 * GB)
	if math.Abs(float64(got)-9.0) > 0.01 {
		t.Errorf("112GB @ 12.44GB/s = %v s, want ~9 s", float64(got))
	}
}

func TestBandwidthZeroIsInfinite(t *testing.T) {
	if !math.IsInf(float64(Bandwidth(0).TimeToMove(GB)), 1) {
		t.Error("zero bandwidth should yield +Inf transfer time")
	}
	if !math.IsInf(float64(Bandwidth(-5).TimeToMove(GB)), 1) {
		t.Error("negative bandwidth should yield +Inf transfer time")
	}
}

func TestBandwidthString(t *testing.T) {
	cases := []struct {
		in   Bandwidth
		want string
	}{
		{100 * MBps, "100 MB/s"},
		{15 * GBps, "15 GB/s"},
		{10 * TBps, "10 TB/s"},
		{440.4 * MBps, "440.4 MB/s"},
		{12, "12 B/s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bandwidth(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestSecondsString(t *testing.T) {
	cases := []struct {
		in   Seconds
		want string
	}{
		{0, "0 s"},
		{9, "9 s"},
		{150, "2.5 min"},
		{1120, "18.667 min"},
		{2 * Hour, "2 h"},
		{3 * Day, "3 d"},
		{0.004, "4 ms"},
		{2e-6, "2 us"},
		{-90, "-1.5 min"},
		{Seconds(math.Inf(1)), "inf"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Seconds(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestSecondsDuration(t *testing.T) {
	if got := Seconds(1.5).Duration(); got != 1500*time.Millisecond {
		t.Errorf("Duration() = %v, want 1.5s", got)
	}
	if got := Seconds(math.Inf(1)).Duration(); got != time.Duration(math.MaxInt64) {
		t.Errorf("infinite Seconds should saturate, got %v", got)
	}
}
