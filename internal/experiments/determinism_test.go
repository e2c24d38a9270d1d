package experiments

import (
	"bytes"
	"sync"
	"testing"
)

// render executes an experiment and returns its full rendered text output.
func render(t *testing.T, id string, o Options) []byte {
	t.Helper()
	tables, err := Run(id, o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return renderTables(tables)
}

func renderTables(tables []*Table) []byte {
	var buf bytes.Buffer
	for _, tb := range tables {
		tb.Fprint(&buf)
	}
	return buf.Bytes()
}

// defaultDecodeBatch is decodeBatch as the package sets it.
var defaultDecodeBatch = decodeBatch

// tinyRun is one experiment's run at tiny(), Workers 1 and the default
// decode batch, taken once per test binary.
type tinyRun struct {
	once   sync.Once
	tables []*Table
	text   []byte
	err    error
}

var (
	tinyMu   sync.Mutex
	tinyRuns = map[string]*tinyRun{}
)

// tinyRender returns the tables of Run(id, tiny()) at Workers 1 and the
// default decode batch, and their rendered text. Every test that reads an
// id shares its one run, so none may modify the tables.
func tinyRender(t *testing.T, id string) ([]*Table, []byte) {
	t.Helper()
	if decodeBatch != defaultDecodeBatch {
		t.Fatalf("decodeBatch left at %d by an earlier test, want %d", decodeBatch, defaultDecodeBatch)
	}
	tinyMu.Lock()
	r := tinyRuns[id]
	if r == nil {
		r = new(tinyRun)
		tinyRuns[id] = r
	}
	tinyMu.Unlock()
	r.once.Do(func() {
		o := tiny()
		o.Workers = 1
		if r.tables, r.err = Run(id, o); r.err == nil {
			r.text = renderTables(r.tables)
		}
	})
	if r.err != nil {
		t.Fatalf("%s: %v", id, r.err)
	}
	return r.tables, r.text
}

// TestParallelByteIdentical is the engine's core contract: for a fixed
// seed, an experiment's rendered tables are byte-identical no matter how
// many workers execute its trials. The set covers PHY sweeps (fig10),
// MAC simulations (tab1, fig4), timeline experiments (fig15),
// single-trial harnesses (fig3), netsim fan-outs (fig14), every
// multi-stage harness with flattened trial-index arithmetic (fig13,
// fig16, fig17, ablation-excision) — where a transposed index would
// silently swap results between algorithms — and every harness that
// threads a shared per-worker phy.Workspace through its trials (fig7,
// fig8, fig9, fig10, fig11, ablation-decoder), where scratch residue
// leaking between trials on one worker would make output depend on the
// worker count. Each id's Workers-1 render is the shared tinyRender; the
// test adds one render at Workers 3, an odd count above the cores of a
// small host, so trials finish out of order on uneven workers.
func TestParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel determinism tests skipped in -short mode")
	}
	for _, id := range []string{"fig3", "fig4", "fig10", "fig15", "tab1", "fig14",
		"fig13", "fig16", "fig17", "ablation-excision",
		"fig7", "fig8", "fig9", "fig11", "ablation-decoder"} {
		t.Run(id, func(t *testing.T) {
			_, serial := tinyRender(t, id)
			o := tiny()
			o.Workers = 3
			if parallel := render(t, id, o); !bytes.Equal(serial, parallel) {
				t.Errorf("%s: output differs between Workers=1 and Workers=3\n--- workers=1 ---\n%s\n--- workers=3 ---\n%s",
					id, serial, parallel)
			}
		})
	}
}

// TestCSVRendering checks the machine-readable table format round-trips
// the structure: typed records, one per header/row/note.
func TestCSVRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "a, \"quoted\" title", Header: []string{"c1", "c2"}}
	tb.AddRow("v1", "v2")
	tb.AddNote("note %d", 7)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "table,x,\"a, \"\"quoted\"\" title\"\nheader,c1,c2\nrow,v1,v2\nnote,note 7\n"
	if buf.String() != want {
		t.Errorf("CSV mismatch:\ngot  %q\nwant %q", buf.String(), want)
	}
}
