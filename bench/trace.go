package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call it
// makes into a layer of the program. Every span is on the host wall clock;
// modeled device and fabric times are reported as metrics, not as spans.
type span struct {
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	Parent int // index into recorder.spans, −1 for a root
	Op     string
	Lane   int // trace row: 0 for batch ops, the client number for jobs
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing switched off: every method is a no-op, so untraced ops pay one
// nil check per call site and nothing else.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name, op string, parent, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op, Lane: lane})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere (a job's queue
// wait and stages, rebuilt from the daemon's Status JSON).
func (r *recorder) add(name, op string, parent, lane int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, Start: start.Sub(r.epoch), End: end.Sub(r.epoch), Parent: parent, Op: op, Lane: lane,
	})
	return len(r.spans) - 1
}

// do runs fn inside a span and returns fn's error and the span's duration
// in seconds. With tracing off it still times fn.
func (r *recorder) do(name, op string, parent int, fn func(id int) error) (float64, error) {
	id := r.begin(name, op, parent, 0)
	t0 := time.Now()
	err := fn(id)
	d := time.Since(t0)
	r.end(id)
	return d.Seconds(), err
}

// selfTimes returns, per span name, the summed self time of the spans of
// one op: each span's duration minus the part of its interval that its
// direct children cover. Children may overlap one another (two clients,
// two streams), so coverage is the length of the union of their intervals
// clipped to the parent, never the sum of their durations.
func selfTimes(spans []span, op string) map[string]time.Duration {
	children := map[int][]int{}
	for i := range spans {
		if spans[i].Op == op && spans[i].Parent >= 0 {
			children[spans[i].Parent] = append(children[spans[i].Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		if s.Op != op || s.End < s.Start {
			continue
		}
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach time.Duration
		reach = s.Start
		for _, v := range ivs {
			if v.lo > reach {
				reach = v.lo
			}
			if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load it at
// chrome://tracing or ui.perfetto.dev).
func (r *recorder) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op, "workload": workload, "clock": string(hostWall)},
		})
	}
	r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
