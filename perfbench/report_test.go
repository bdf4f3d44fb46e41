package main

import "testing"

func TestNormaliseReportStripsOnlyTheTimingLine(t *testing.T) {
	report := "=== run ===\nseed=1\n\nTable 1\nrow report generated in the table\n\nreport generated in 3.042s\n"
	want := "=== run ===\nseed=1\n\nTable 1\nrow report generated in the table\n\n"
	if got := normaliseReport(report); got != want {
		t.Fatalf("normaliseReport = %q, want %q", got, want)
	}
}

func TestNormaliseReportKeepsEveryOtherByte(t *testing.T) {
	for _, report := range []string{
		"",
		"no trailing newline",
		"a\r\nb\n\n\n",
		" report generated in 1s\n", // indented: not cmd/paper's timing line
		"Report generated in 1s\n",
	} {
		if got := normaliseReport(report); got != report {
			t.Errorf("normaliseReport(%q) = %q, want it unchanged", report, got)
		}
	}
}

func TestTimingLineDoesNotChangeDigest(t *testing.T) {
	a := "figures\nreport generated in 2.9s\n"
	b := "figures\nreport generated in 3.4s\n"
	if digest(normaliseReport(a)) != digest(normaliseReport(b)) {
		t.Fatal("reports differing only in their timing line got different digests")
	}
	c := "figuree\nreport generated in 2.9s\n"
	if digest(normaliseReport(a)) == digest(normaliseReport(c)) {
		t.Fatal("reports with different figures got one digest")
	}
}
