package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call at a layer boundary. Spans of one traced sample
// share Sample; a sample's root has Parent -1.
type span struct {
	Sample int     `json:"sample"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.EndS - s.StartS }

// tracer keeps every span in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(sample, parent int, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Sample: sample, ID: id, Parent: parent, Name: name,
		StartS: time.Since(t.t0).Seconds()})
	return id
}

func (t *tracer) end(id int) float64 {
	t.spans[id].EndS = time.Since(t.t0).Seconds()
	return t.spans[id].dur()
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover, over the spans of one sample. Children run one after
// another inside their parent, so their durations add.
func (t *tracer) selfTimes(sample int) map[string]float64 {
	child := make(map[int]float64)
	for _, s := range t.spans {
		if s.Sample == sample && s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		if s.Sample == sample {
			self[s.Name] += s.dur() - child[s.ID]
		}
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
