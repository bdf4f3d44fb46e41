package main

import (
	"sync"
	"time"
)

// feedPlan paces a recorded byte stream: the bytes go out in fixed-size
// chunks, chunk i due at i*interval after the start, so the records the
// chunks carry arrive at an even rate whatever the system does with them.
type feedPlan struct {
	chunk    int           // bytes per chunk (the last may be shorter)
	chunks   int           // number of chunks
	interval time.Duration // spacing of chunk due times; 0 is full speed
}

// planFeed spreads size bytes carrying records flow records over span, in
// chunks of at most chunk bytes. A zero span sends everything at once.
func planFeed(size, records, chunk int, span time.Duration) feedPlan {
	if chunk <= 0 || size <= 0 {
		return feedPlan{}
	}
	p := feedPlan{chunk: chunk, chunks: (size + chunk - 1) / chunk}
	if span > 0 && p.chunks > 0 {
		p.interval = span / time.Duration(p.chunks)
	}
	return p
}

// due is chunk i's offset from the start of the feed.
func (p feedPlan) due(i int) time.Duration { return time.Duration(i) * p.interval }

// lastDue is when the final chunk, and so the final record, is due.
func (p feedPlan) lastDue() time.Duration {
	if p.chunks == 0 {
		return 0
	}
	return p.due(p.chunks - 1)
}

// rate is the planned record rate in records per second, 0 at full speed.
func (p feedPlan) rate(records int) float64 {
	if p.interval == 0 || p.chunks == 0 {
		return 0
	}
	return float64(records) / (time.Duration(p.chunks) * p.interval).Seconds()
}

// clock runs an open-loop timetable from one start instant. Each wait
// records how late the generator itself woke for an event it was early
// for; an event that is already overdue when the generator gets to it
// was held up by the system under test (a blocked write, a slow reply),
// and that delay belongs in the event's latency, not in the generator's.
type clock struct {
	start time.Time

	mu   sync.Mutex
	late []float64 // generator wake-up lateness, ms
}

func newClock(start time.Time) *clock { return &clock{start: start} }

// wait blocks until offset after the start and returns the due instant.
func (c *clock) wait(offset time.Duration) time.Time {
	due := c.start.Add(offset)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
		lateMs := float64(time.Since(due)) / float64(time.Millisecond)
		c.mu.Lock()
		c.late = append(c.late, lateMs)
		c.mu.Unlock()
	}
	return due
}

// lateness returns the recorded wake-up lateness samples in ms.
func (c *clock) lateness() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.late...)
}
