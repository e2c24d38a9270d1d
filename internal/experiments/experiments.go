// Package experiments contains one harness per table and figure of the
// paper's evaluation (§5, §6), each regenerating the corresponding result
// as a printable table. The harnesses are the integration layer: they wire
// the channel models, the PHY, the SoftPHY math, the rate adaptation
// algorithms, the MAC and the network simulator together exactly as the
// paper's experimental setups describe (Table 4 and §6.1).
//
// Every harness accepts Options so that the same code can run at "CI
// scale" (seconds) or "paper scale" (minutes): Scale multiplies frame
// counts and durations without changing the experimental structure.
//
// Harnesses are trial-sharded: each declares its independent trials (one
// per SNR point, seed, algorithm or topology) as closures and fans them
// across the worker pool in the engine subpackage. Trials derive their
// randomness from Options.Seed plus their trial index and aggregate in
// trial order, so for a fixed seed the output is byte-identical at any
// Options.Workers setting.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Options tune an experiment run.
type Options struct {
	// Scale multiplies sample counts/durations; 1.0 approximates the
	// paper's sample sizes, the default 0.25 keeps the full suite fast.
	Scale float64
	// Seed drives all randomness in the experiment.
	Seed int64
	// Workers bounds the engine's trial-level parallelism. Zero or
	// negative means one worker per CPU. Results are byte-identical at
	// any worker count: every trial derives its randomness from Seed and
	// its own trial index, and the engine aggregates in trial order.
	Workers int
}

// decodeBatch is how many frames the PHY-driven harnesses queue before
// decoding them as one lockstep batch. The batch decoder is exact, so
// output is byte-identical at every size (at least 1); tests vary it.
var decodeBatch = 8

func (o *Options) fill() {
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// scaled returns max(1, round(n*Scale)).
func (o Options) scaled(n int) int {
	v := int(float64(n)*o.Scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// netDuration returns the simulated seconds of a trace-driven network
// experiment: 10 s times Scale, but never under 2 s.
func (o Options) netDuration() float64 {
	dur := 10 * o.Scale
	if dur < 2 {
		dur = 2
	}
	return dur
}

// Table is one experiment output: an identifier tying it to the paper, a
// header row and data rows, plus free-form notes (e.g. the shape checks
// the paper's prose asserts).
type Table struct {
	// ID is the paper artifact this reproduces, e.g. "fig13".
	ID string `json:"id"`
	// Title describes the table.
	Title string `json:"title"`
	// Header names the columns.
	Header []string `json:"header"`
	// Rows holds the data, already formatted.
	Rows [][]string `json:"rows"`
	// Notes carries shape observations and caveats.
	Notes []string `json:"notes,omitempty"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			wdt := 0
			if i < len(widths) {
				wdt = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", wdt, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the table as CSV records. The first field of every
// record is its type — "table" (ID and title), "header", "row" or
// "note" — so that several tables can share one stream and downstream
// tooling can split them back apart without guessing at widths.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"table", t.ID, t.Title}); err != nil {
		return err
	}
	if err := cw.Write(append([]string{"header"}, t.Header...)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(append([]string{"row"}, row...)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if err := cw.Write([]string{"note", n}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Runner is an experiment entry point.
type Runner func(o Options) []*Table

// registry maps experiment IDs to their runners.
var registry = map[string]Runner{}

// register is called from each experiment file's init.
func register(id string, r Runner) { registry[id] = r }

// Run executes the experiment with the given paper-artifact ID.
func Run(id string, o Options) ([]*Table, error) {
	o.fill()
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(o), nil
}

// IDs lists the registered experiments in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// fmtBER renders a BER in compact scientific form.
func fmtBER(b float64) string {
	if b == 0 {
		return "0"
	}
	return fmt.Sprintf("%.2e", b)
}

// fmtMbps renders bits/s as Mbps.
func fmtMbps(bps float64) string { return fmt.Sprintf("%.2f", bps/1e6) }

// fmtPct renders a fraction as a percentage.
func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
