package study

import (
	"testing"

	"ndpcr/internal/compress"
	"ndpcr/internal/miniapps"
)

func TestMeasureScalingValidation(t *testing.T) {
	gz, _ := compress.Lookup("gzip", 1)
	if _, err := MeasureScaling("HPCCG", miniapps.Small, gz, nil, 1, 1); err == nil {
		t.Error("empty worker list accepted")
	}
	if _, err := MeasureScaling("HPCCG", miniapps.Small, gz, []int{0}, 1, 1); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := MeasureScaling("bogus", miniapps.Small, gz, []int{1}, 1, 1); err == nil {
		t.Error("bogus app accepted")
	}
}

func TestMeasureScalingReportsSpeedup(t *testing.T) {
	// Structure only: how much two workers gain is the host's business (a
	// shared 2-vCPU runner gains nothing), and tier-1 asserts no wall clock.
	bw, _ := compress.Lookup("bwz", 1)
	pts, err := MeasureScaling("miniSmac", miniapps.Small, bw, []int{1, 2}, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Workers != 1 || pts[0].Speedup != 1 {
		t.Errorf("baseline point = %+v", pts[0])
	}
	if pts[1].Speed <= 0 {
		t.Fatalf("no throughput measured: %+v", pts[1])
	}
	if want := float64(pts[1].Speed) / float64(pts[0].Speed); pts[1].Speedup != want {
		t.Errorf("speedup = %v, want speed/baseline = %v", pts[1].Speedup, want)
	}
}
