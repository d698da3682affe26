package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"distknn/internal/obs"
)

// traceLog keeps the spans of one traced pass in memory; flush writes them
// out when the benchmark ends. Three kinds of line share a file:
//
//	client.call     one RemoteCluster call, timed by the benchmark; "query"
//	                is the index of the query in the workload's stream
//	frontend.epoch  one epoch span from the frontend's tracer, with its
//	                stage offsets and per-seat arrivals
//	probe.<name>    one layer probe, all its repetitions
//
// The public API carries no identifier from a call to the epoch that served
// it, so the two are related by time only.
type traceLog struct {
	lines []any
}

type callLine struct {
	Span        string `json:"span"`
	Query       uint64 `json:"query"`
	Op          string `json:"op"`
	StartUnixNS int64  `json:"start_unix_ns"`
	DurNS       int64  `json:"dur_ns"`
	OK          bool   `json:"ok"`
}

type epochLine struct {
	Span string `json:"span"`
	obs.SpanSnapshot
}

type probeLine struct {
	Span        string `json:"span"`
	StartUnixNS int64  `json:"start_unix_ns"`
	DurNS       int64  `json:"dur_ns"`
}

func addCalls[P any](l *traceLog, s *spec[P], t *tally, d delta) {
	if l == nil {
		return
	}
	for _, sm := range t.samples {
		if !d.inside(t.start.Add(time.Duration(sm.doneNS))) {
			continue
		}
		start := t.start.Add(time.Duration(sm.doneNS - sm.latNS))
		l.lines = append(l.lines, callLine{
			Span: "client.call", Query: sm.idx, Op: s.ops[sm.idx%uint64(len(s.ops))].String(),
			StartUnixNS: start.UnixNano(), DurNS: sm.latNS, OK: sm.ok,
		})
	}
}

func (l *traceLog) addEpochs(spans []obs.SpanSnapshot, d delta) {
	if l == nil {
		return
	}
	for _, sp := range spans {
		if d.inside(spanEnd(sp)) {
			l.lines = append(l.lines, epochLine{Span: "frontend.epoch", SpanSnapshot: sp})
		}
	}
}

func (l *traceLog) addProbe(name string, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.lines = append(l.lines, probeLine{Span: "probe." + name, StartUnixNS: start.UnixNano(), DurNS: int64(d)})
}

// flush writes the kept spans to dir/trace-<workload>.jsonl, one JSON
// object per line.
func (l *traceLog) flush(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, line := range l.lines {
		if err := enc.Encode(line); err != nil {
			f.Close()
			return fmt.Errorf("trace: %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %s: %w", path, err)
	}
	return nil
}
