package main

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
)

// timingLinePrefix starts the one line of cmd/paper's report that varies
// from run to run: its own wall-clock time.
const timingLinePrefix = "report generated in "

// normaliseReport drops cmd/paper's timing line and keeps every other
// byte, so two runs of one seed compare equal exactly when their tables
// and figures do.
func normaliseReport(report string) string {
	lines := strings.SplitAfter(report, "\n")
	var b strings.Builder
	b.Grow(len(report))
	for _, l := range lines {
		if strings.HasPrefix(l, timingLinePrefix) {
			continue
		}
		b.WriteString(l)
	}
	return b.String()
}

// digest is the hex SHA-256 of s.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
