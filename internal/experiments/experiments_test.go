package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// tiny returns fast options for integration testing every harness.
func tiny() Options { return Options{Scale: 0.08, Seed: 7} }

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"tab1", "tab2", "tab3",
		"ablation-decoder", "ablation-excision", "ablation-harq",
		"ablation-jumps", "ablation-silent",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("fig999", DefaultOptions()); err == nil {
		t.Fatal("expected error for unknown id")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddNote("note %d", 5)
	var buf bytes.Buffer
	tb.Fprint(&buf)
	s := buf.String()
	for _, want := range []string{"== x: t ==", "a  bb", "1  2", "note: note 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

// runAndCheck sanity-checks the output structure of an experiment's
// shared tiny-scale run (tinyRender).
func runAndCheck(t *testing.T, id string, minRows int) []*Table {
	t.Helper()
	tables, _ := tinyRender(t, id)
	if len(tables) == 0 {
		t.Fatalf("%s: no tables", id)
	}
	total := 0
	for _, tb := range tables {
		if tb.ID == "" || len(tb.Header) == 0 {
			t.Fatalf("%s: malformed table %+v", id, tb)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Fatalf("%s/%s: row width %d vs header %d", id, tb.ID, len(row), len(tb.Header))
			}
		}
		total += len(tb.Rows)
	}
	if total < minRows {
		t.Fatalf("%s: only %d rows", id, total)
	}
	return tables
}

func TestTab2Exact(t *testing.T) {
	tables := runAndCheck(t, "tab2", 8)
	if tables[0].Rows[3][2] != "18 Mbps" {
		t.Fatalf("row 3 = %v", tables[0].Rows[3])
	}
}

func TestTab3Exact(t *testing.T) {
	tables := runAndCheck(t, "tab3", 3)
	if tables[0].Rows[0][0] != "long-range" {
		t.Fatalf("rows %v", tables[0].Rows)
	}
}

func TestFig1Shape(t *testing.T) {
	tables := runAndCheck(t, "fig1", 50)
	if len(tables) != 2 {
		t.Fatalf("want coarse + detail tables, got %d", len(tables))
	}
}

func TestFig3DetectsCollisionNotFading(t *testing.T) {
	tables := runAndCheck(t, "fig3", 5)
	notes := strings.Join(tables[0].Notes, "\n")
	if !strings.Contains(notes, "collision frame: true") {
		t.Fatalf("collision frame not detected:\n%s", notes)
	}
}

func TestFig5Monotone(t *testing.T) {
	tables := runAndCheck(t, "fig5", 2)
	// The monotonicity note must report a clear majority of bins.
	note := tables[0].Notes[0]
	var ok, total int
	if _, err := fmtSscanf(note, &ok, &total); err != nil {
		t.Skipf("cannot parse note %q", note)
	}
	if total > 0 && float64(ok)/float64(total) < 0.7 {
		t.Fatalf("monotonicity only %d/%d bins", ok, total)
	}
}

// fmtSscanf pulls the first two integers out of a note string.
func fmtSscanf(s string, a, b *int) (int, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r != '/' && (r < '0' || r > '9')
	})
	for _, f := range fields {
		if strings.Contains(f, "/") {
			parts := strings.SplitN(f, "/", 2)
			x, err1 := strconv.Atoi(parts[0])
			y, err2 := strconv.Atoi(parts[1])
			if err1 == nil && err2 == nil {
				*a, *b = x, y
				return 2, nil
			}
		}
	}
	return 0, strconvErr
}

var strconvErr = strconv.ErrSyntax

func TestTab1UnderBound(t *testing.T) {
	tables := runAndCheck(t, "tab1", 2)
	// Every fraction cell must parse and stay under 35% even at tiny
	// scale (the paper's bound is 15% at full scale).
	for _, row := range tables[0].Rows {
		for _, cell := range row[2:] {
			v := parsePct(t, cell)
			if v > 35 {
				t.Fatalf("silent-loss fraction %s too high", cell)
			}
		}
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage %q", s)
	}
	return v
}

func TestFig4CCDFMonotone(t *testing.T) {
	tables := runAndCheck(t, "fig4", 2)
	prev := 2.0
	for _, row := range tables[0].Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad ccdf cell %q", row[1])
		}
		if v > prev+1e-9 {
			t.Fatalf("CCDF not monotone: %v", tables[0].Rows)
		}
		prev = v
	}
}

func TestFig15Converges(t *testing.T) {
	tables, err := Run("fig15", Options{Scale: 0.2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	conv := tables[1]
	// SampleRate must converge at least 5x slower than RRAA on the
	// high->low switch (paper: 600 ms vs 15 ms).
	r := parseMs(t, conv.Rows[0][1])
	s := parseMs(t, conv.Rows[1][1])
	if s < r {
		t.Fatalf("SampleRate (%v ms) converged faster than RRAA (%v ms)", s, r)
	}
	if s < 100 {
		t.Fatalf("SampleRate converged in %v ms; expected hundreds", s)
	}
}

func parseMs(t *testing.T, s string) float64 {
	t.Helper()
	if s == "did not converge" {
		return 1e9
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad ms cell %q", s)
	}
	return v
}

func TestAblationHARQShift(t *testing.T) {
	tables := runAndCheck(t, "ablation-harq", 6)
	// H-ARQ beta (col 4) must be above frame-ARQ beta (col 2) per row.
	for _, row := range tables[0].Rows {
		fb, _ := strconv.ParseFloat(row[2], 64)
		hb, _ := strconv.ParseFloat(row[4], 64)
		if hb <= fb {
			t.Fatalf("H-ARQ beta %v not above frame-ARQ %v", hb, fb)
		}
	}
}

func TestAblationJumpsFaster(t *testing.T) {
	tables := runAndCheck(t, "ablation-jumps", 2)
	d1, _ := strconv.Atoi(tables[0].Rows[0][1])
	d2, _ := strconv.Atoi(tables[0].Rows[1][1])
	if d2 > d1 {
		t.Fatalf("2-level jumps (%d rounds) slower than 1-level (%d)", d2, d1)
	}
}

// The heavyweight harnesses get smoke coverage: structure only.
func TestHeavyExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiment smoke tests skipped in -short mode")
	}
	for _, id := range []string{"fig7", "fig8", "fig9", "fig10", "fig11"} {
		id := id
		t.Run(id, func(t *testing.T) {
			runAndCheck(t, id, 2)
		})
	}
}

func TestNetworkExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("network experiment smoke tests skipped in -short mode")
	}
	for _, id := range []string{"fig13", "fig14", "fig16", "fig17", "fig18",
		"ablation-excision", "ablation-silent", "ablation-decoder"} {
		id := id
		t.Run(id, func(t *testing.T) {
			runAndCheck(t, id, 2)
		})
	}
}
