package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one engine step,
// one published item or one HTTP request share a Trace id; Parent names the
// span that caused this one. Times are nanoseconds since process start.
type span struct {
	Trace  int64              `json:"trace"`
	ID     int64              `json:"span"`
	Parent int64              `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// spanLog keeps spans in memory until the run ends; a nil log records
// nothing, which is how untraced runs pay nothing for it.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	next  int64
}

// sinceStart converts a wall-clock reading to the span time base.
func sinceStart(t time.Time) int64 { return t.Sub(processStart).Nanoseconds() }

// add records one span and returns its id (0 on a nil log). trace 0 starts a
// new trace named after the span's own id.
func (l *spanLog) add(trace, parent int64, name string, start, end time.Time, attrs map[string]float64) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	id := l.next
	if trace == 0 {
		trace = id
	}
	l.spans = append(l.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: sinceStart(start), End: sinceStart(end), Attrs: attrs,
	})
	return id
}

// writeFile dumps the spans as one JSON document.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	l.mu.Lock()
	err = json.NewEncoder(f).Encode(struct {
		Spans []span `json:"spans"`
	}{l.spans})
	l.mu.Unlock()
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
