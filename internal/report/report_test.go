package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "Test",
		Headers: []string{"Name", "Value"},
	}
	tab.AddRow("alpha", 42)
	tab.AddRow("b", "long-value-here")
	out := tab.Render()
	if !strings.Contains(out, "Test") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// All table lines the same width (aligned columns).
	for i := 2; i < len(lines); i++ {
		if len(lines[i]) != len(lines[1]) {
			t.Errorf("line %d width %d != header width %d", i, len(lines[i]), len(lines[1]))
		}
	}
	if !strings.Contains(out, "42") || !strings.Contains(out, "long-value-here") {
		t.Error("cells missing")
	}
}

func TestTableRaggedRows(t *testing.T) {
	tab := &Table{Headers: []string{"A"}}
	tab.AddRow("x", "extra", "cols")
	out := tab.Render()
	if !strings.Contains(out, "extra") {
		t.Error("ragged row dropped")
	}
}

func TestCSV(t *testing.T) {
	var buf bytes.Buffer
	err := CSV(&buf, []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "with,comma"}})
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "a,b\n") || !strings.Contains(got, `"with,comma"`) {
		t.Errorf("csv = %q", got)
	}
}

func TestBar(t *testing.T) {
	b := Bar(0.5, 10)
	if !strings.HasPrefix(b, "#####.....") {
		t.Errorf("bar = %q", b)
	}
	if !strings.Contains(b, "50.0%") {
		t.Errorf("bar = %q", b)
	}
	if !strings.Contains(Bar(-1, 10), "0.0%") {
		t.Error("negative frac not clamped")
	}
	if !strings.Contains(Bar(2, 10), "100.0%") {
		t.Error("over-1 frac not clamped")
	}
	if len(Bar(0.5, 0)) == 0 {
		t.Error("zero width not defaulted")
	}
}

func TestSeries(t *testing.T) {
	var buf bytes.Buffer
	Series(&buf, "Fig", []string{"short", "a-much-longer-label"}, []float64{0.25, 0.75}, 20)
	out := buf.String()
	if !strings.Contains(out, "Fig") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	// Bars start at the same column.
	i1 := strings.IndexAny(lines[1], "#.")
	i2 := strings.IndexAny(lines[2], "#.")
	if i1 != i2 {
		t.Errorf("bars not aligned: %d vs %d", i1, i2)
	}
}
