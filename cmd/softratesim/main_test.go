package main

import (
	"bytes"
	"strings"
	"testing"

	"softrate/internal/netsim"
)

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-flows", "0"},
		{"-flows", "-1"},
		{"-duration", "0.0005"},
		{"-duration", "0"},
		{"-duration", "-1"},
		{"-duration", "NaN"},
		{"-alg", "foo"},
		{"-channel", "foo"},
		{"-channel", "static", "-snr", "NaN"},
		{"-channel", "fading", "-snr", "+Inf"},
		{"-channel", "fading", "-doppler", "NaN"},
		{"-bogus"},
	} {
		var out bytes.Buffer
		if code := run(args, &out); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", args, out.String())
		}
	}
}

func TestAllPrintsTheCatalogueInLegendOrder(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-alg", "all", "-duration", "0.3", "-channel", "static"}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	rows := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	algs := netsim.Algorithms()
	if len(rows) != len(algs) || len(rows) != 6 {
		t.Fatalf("%d rows, want 6:\n%s", len(rows), out.String())
	}
	for i, a := range algs {
		if f := strings.Fields(rows[i]); f[0] != a.Key || f[1] != "aggregate" {
			t.Errorf("row %d = %q, want %s first", i, rows[i], a.Key)
		}
	}
}
