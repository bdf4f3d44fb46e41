package main

import (
	"math"
	"testing"
	"time"
)

func TestPlanFeedSpreadsRecordsOverTheSpan(t *testing.T) {
	// The serve-dashboard shape: a 16.8 MB week of 546k records over 10 s.
	const size, records = 16_793_720, 546_153
	p := planFeed(size, records, 16<<10, 10*time.Second)
	if want := (size + (16<<10 - 1)) / (16 << 10); p.chunks != want {
		t.Fatalf("chunks = %d, want %d", p.chunks, want)
	}
	if p.chunks*p.chunk < size || (p.chunks-1)*p.chunk >= size {
		t.Fatalf("%d chunks of %d bytes do not cover exactly %d bytes", p.chunks, p.chunk, size)
	}
	if got := time.Duration(p.chunks) * p.interval; got > 10*time.Second || got < 10*time.Second-time.Duration(p.chunks) {
		t.Fatalf("schedule spans %v, want 10s", got)
	}
	if p.due(0) != 0 || p.lastDue() != time.Duration(p.chunks-1)*p.interval {
		t.Fatalf("due(0)=%v lastDue=%v", p.due(0), p.lastDue())
	}
	if rate := p.rate(records); math.Abs(rate-54615.3) > 5 {
		t.Fatalf("rate = %.1f records/s, want about 54615", rate)
	}
}

func TestPlanFeedFullSpeed(t *testing.T) {
	p := planFeed(1000, 10, 256, 0)
	if p.chunks != 4 || p.interval != 0 || p.lastDue() != 0 || p.rate(10) != 0 {
		t.Fatalf("full-speed plan = %+v, lastDue %v, rate %v", p, p.lastDue(), p.rate(10))
	}
}

func TestPlanFeedEmpty(t *testing.T) {
	for _, p := range []feedPlan{planFeed(0, 0, 256, time.Second), planFeed(100, 1, 0, time.Second)} {
		if p.chunks != 0 || p.lastDue() != 0 || p.rate(1) != 0 {
			t.Fatalf("empty plan = %+v", p)
		}
	}
}

// The read schedule of serve-dashboard: every read falls within the paced
// feed, and a run's reps make enough reads for a p90 with ten samples
// beyond it.
func TestDashboardScheduleFitsTheFeed(t *testing.T) {
	last := time.Duration(dashboardReads-1) * dashboardEvery
	if last >= dashboardSpan {
		t.Fatalf("last read due at %v, after the %v feed", last, dashboardSpan)
	}
	n := dashboardReads * dashboardReps
	if _, beyond, ok := percentile(make([]float64, n), 90); !ok {
		t.Fatalf("%d reads leave %d beyond p90", n, beyond)
	}
}

func TestClockRecordsOnlyGeneratorLateness(t *testing.T) {
	start := time.Now()
	c := newClock(start)
	// Already overdue: the delay is the system's, not the generator's.
	if due := c.wait(-time.Second); !due.Equal(start.Add(-time.Second)) {
		t.Fatalf("wait returned %v", due)
	}
	if n := len(c.lateness()); n != 0 {
		t.Fatalf("overdue event recorded %d lateness samples", n)
	}
	due := c.wait(5 * time.Millisecond)
	if time.Now().Before(due) {
		t.Fatal("wait returned before the event was due")
	}
	late := c.lateness()
	if len(late) != 1 || late[0] < 0 {
		t.Fatalf("lateness = %v, want one non-negative sample", late)
	}
}
