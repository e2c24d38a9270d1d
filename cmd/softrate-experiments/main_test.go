package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "fig15", "-scale", "NaN"},
		{"-run", "fig15", "-scale", "+Inf"},
		{"-run", "fig15", "-scale", "0"},
		{"-run", "fig15", "-scale", "-1"},
		{"-run", "tab2", "-seed", "0"},
		{"-run", "tab2", "-format", "xml"},
		{"-run", "tab2,nope"},
		{"-run", "nope,tab2"},
		{"-run", ","},
		{"-run", " "},
		{},
		{"-bogus"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%q: printed %q", args, out.String())
		}
		if errs.Len() == 0 {
			t.Errorf("%q: exit 2 without a word on stderr", args)
		}
	}
}

// tab2 is Table 2 as the command has always rendered it.
const tab2 = `== tab2: 802.11a/g modulation and coding combinations ==
  Modulation  Code Rate  802.11 Rate  Paper prototype  This repo
  BPSK        1/2        6 Mbps       Yes              Yes
  BPSK        3/4        9 Mbps       Yes              Yes
  QPSK        1/2        12 Mbps      Yes              Yes
  QPSK        3/4        18 Mbps      Yes              Yes
  QAM16       1/2        24 Mbps      Yes              Yes
  QAM16       3/4        36 Mbps      Yes              Yes
  QAM64       2/3        48 Mbps      No               Yes
  QAM64       3/4        54 Mbps      No               Yes

`

func TestRunTab2(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "tab2"},
		{"-run", " tab2 ,"}, // IDs are trimmed and empty ones skipped
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 0 {
			t.Fatalf("%q: exit %d: %s", args, code, errs.String())
		}
		if out.String() != tab2 {
			t.Errorf("%q: stdout\n%s\nwant\n%s", args, out.String(), tab2)
		}
		if !strings.Contains(errs.String(), "-- tab2 completed in ") {
			t.Errorf("%q: no timing line on stderr: %q", args, errs.String())
		}
	}
}
