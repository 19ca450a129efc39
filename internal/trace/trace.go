// Package trace collects structured records from a simulation run: every
// model's trace line becomes an Event with a timestamp, a component and a
// kind; every instrumented pipeline stage becomes a typed Span; metric
// hooks become virtual-time Samples. Records are filterable and export as
// text, JSON or Chrome/Perfetto trace-event JSON. The putgettrace command
// and the putgetbench latency-breakdown experiment are built on it.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"putget/internal/sim"
)

// Event is one recorded model event.
type Event struct {
	At  sim.Time // virtual timestamp (picoseconds)
	Cat string   // emitting component ("pcie", "a.rma", "gpu", ...)
	Msg string   // human-readable description
	// Kind classifies the event ("fault", "retry", ...); plain progress
	// lines leave it empty.
	Kind string `json:",omitempty"`
	// Dropped is nonzero only on the synthetic summary record WriteJSON
	// appends when the retention bound was exceeded.
	Dropped int `json:",omitempty"`
}

// Span is one completed (or still-open) pipeline stage: a component doing
// one kind of work over a virtual-time interval.
type Span struct {
	ID    uint64
	Comp  string     // owning component ("a.rma", "pcie", "b.gpu", ...)
	Kind  string     // stage ("wr.create", "dma.fetch", "xmit", ...)
	Start sim.Time   // virtual open time (picoseconds)
	End   sim.Time   // virtual close time; openEnd while still open
	Attrs []sim.Attr `json:",omitempty"`
}

// openEnd marks a span not yet closed.
const openEnd = sim.Time(-1)

// Open reports whether the span has not been closed yet.
func (s Span) Open() bool { return s.End == openEnd }

// Dur returns the span's length (0 while open).
func (s Span) Dur() sim.Duration {
	if s.Open() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Sample is one point of a virtual-time metric series.
type Sample struct {
	At    sim.Time
	Comp  string
	Name  string
	Value float64
}

// Recorder captures events, spans and metric samples from an engine's
// trace hooks and observer stream.
type Recorder struct {
	events []Event
	max    int
	drops  int

	spans   []Span
	openIdx map[sim.SpanID]int
	samples []Sample
}

// Attach installs a recorder on the engine's trace hook and observer
// stream. max bounds the number of retained events (0 = unlimited);
// further events are counted as dropped. Spans and samples are not
// bounded: one span per pipeline stage is two orders of magnitude sparser
// than per-packet trace lines.
//
// Attach chains: a hook or observer already installed on the engine keeps
// receiving everything — two recorders may observe one simulation.
func Attach(e *sim.Engine, max int) *Recorder {
	r := &Recorder{max: max, openIdx: map[sim.SpanID]int{}}
	prev := e.TraceEv
	e.TraceEv = func(t sim.Time, comp, kind, msg string) {
		if prev != nil {
			prev(t, comp, kind, msg)
		}
		r.record(Event{At: t, Cat: comp, Kind: kind, Msg: msg})
	}
	e.SetObserver(r)
	return r
}

func (r *Recorder) record(ev Event) {
	if r.max > 0 && len(r.events) >= r.max {
		r.drops++
		return
	}
	r.events = append(r.events, ev)
}

// SpanOpen implements sim.Observer.
func (r *Recorder) SpanOpen(id sim.SpanID, at sim.Time, comp, kind string, attrs []sim.Attr) {
	r.openIdx[id] = len(r.spans)
	r.spans = append(r.spans, Span{ID: uint64(id), Comp: comp, Kind: kind, Start: at, End: openEnd, Attrs: attrs})
}

// SpanClose implements sim.Observer.
func (r *Recorder) SpanClose(id sim.SpanID, at sim.Time) {
	i, ok := r.openIdx[id]
	if !ok {
		return
	}
	delete(r.openIdx, id)
	if at < r.spans[i].Start {
		at = r.spans[i].Start
	}
	r.spans[i].End = at
}

// MetricSample implements sim.Observer.
func (r *Recorder) MetricSample(at sim.Time, comp, name string, value float64) {
	r.samples = append(r.samples, Sample{At: at, Comp: comp, Name: name, Value: value})
}

// Shutdown implements sim.Observer: spans still open when the simulation
// is torn down (pollers parked forever, in-flight ops at a Stop) are
// force-closed at teardown time so every opened span ends.
func (r *Recorder) Shutdown(at sim.Time) {
	for id, i := range r.openIdx {
		delete(r.openIdx, id)
		if at < r.spans[i].Start {
			r.spans[i].End = r.spans[i].Start
		} else {
			r.spans[i].End = at
		}
	}
}

// Events returns every recorded event in time order.
func (r *Recorder) Events() []Event { return r.events }

// Spans returns every span in open order (ids ascend).
func (r *Recorder) Spans() []Span { return r.spans }

// OpenSpans returns the spans not yet closed, in open order.
func (r *Recorder) OpenSpans() []Span {
	var out []Span
	for _, s := range r.spans {
		if s.Open() {
			out = append(out, s)
		}
	}
	return out
}

// Samples returns every metric sample in record order.
func (r *Recorder) Samples() []Sample { return r.samples }

// Dropped reports how many events exceeded the retention bound.
func (r *Recorder) Dropped() int { return r.drops }

// segMatch reports whether cat equals prefix or extends it at a dot
// boundary: "a" matches "a" and "a.rma" but not "ack" or "assist".
func segMatch(cat, prefix string) bool {
	return cat == prefix || (strings.HasPrefix(cat, prefix) && len(cat) > len(prefix) && cat[len(prefix)] == '.')
}

// Filter returns the events whose category — or, for structured events,
// whose kind — matches the prefix on whole dot-separated segments. Kind
// matching keeps "-filter fault" working now that fault/retry lines carry
// the emitting NIC as their category.
func (r *Recorder) Filter(prefix string) []Event {
	var out []Event
	for _, ev := range r.events {
		if segMatch(ev.Cat, prefix) || (ev.Kind != "" && segMatch(ev.Kind, prefix)) {
			out = append(out, ev)
		}
	}
	return out
}

// Categories returns the distinct categories seen, in first-seen order.
func (r *Recorder) Categories() []string {
	seen := map[string]bool{}
	var out []string
	for _, ev := range r.events {
		if !seen[ev.Cat] {
			seen[ev.Cat] = true
			out = append(out, ev.Cat)
		}
	}
	return out
}

// WriteText renders the events one per line with aligned timestamps.
func (r *Recorder) WriteText(w io.Writer) error {
	for _, ev := range r.events {
		if _, err := fmt.Fprintf(w, "%12v  %s\n", ev.At, ev.Msg); err != nil {
			return err
		}
	}
	if r.drops > 0 {
		if _, err := fmt.Fprintf(w, "(… %d further events dropped)\n", r.drops); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the events as a JSON array — [] when the trace is
// empty, never null — with a trailing summary record carrying the drop
// count when the retention bound was exceeded.
func (r *Recorder) WriteJSON(w io.Writer) error {
	evs := r.events
	if r.drops > 0 {
		var last sim.Time
		if n := len(evs); n > 0 {
			last = evs[n-1].At
		}
		evs = append(evs[:len(evs):len(evs)], Event{
			At: last, Cat: "trace", Kind: "drops",
			Msg:     fmt.Sprintf("%d further events dropped (retention bound %d)", r.drops, r.max),
			Dropped: r.drops,
		})
	}
	if evs == nil {
		evs = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(evs)
}
