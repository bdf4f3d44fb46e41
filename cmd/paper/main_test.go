package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// goldenReport pins the whole report — Tables 1-2, Figures 3-16, the
// vantage-point gain, the validation report and §6.2 — at a small
// world with the live scan on. Regenerate it only for an intended
// change to an artefact:
//
//	go run ./cmd/paper -seed 1 -scale 0.02 -lines 800 -o cmd/paper/testdata/report_seed1_scale0.02_lines800.golden
const goldenReport = "testdata/report_seed1_scale0.02_lines800.golden"

// TestGoldenPaperReport: the report is byte-identical to the pinned one.
func TestGoldenPaperReport(t *testing.T) {
	want, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, 1, 0.02, 800); err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Fatalf("report drifted at line %d:\n want: %q\n got:  %q", i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("report drifted in length: got %d lines, want %d", len(gl), len(wl))
}
