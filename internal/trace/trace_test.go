package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"putget/internal/sim"
)

// emit traces msg at at from the component its prefix names, as the
// models' progress lines do.
func emit(e *sim.Engine, at sim.Time, msg string) {
	comp, _, _ := strings.Cut(msg, ":")
	e.At(at, func() { e.Tracev(comp, "", "%s", msg) })
}

func TestRecorderCapturesInOrder(t *testing.T) {
	e := sim.NewEngine()
	r := Attach(e, 0)
	emit(e, 30, "nic: three")
	emit(e, 10, "pcie: one")
	emit(e, 20, "gpu: two")
	e.Run()
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Cat != "pcie" || evs[1].Cat != "gpu" || evs[2].Cat != "nic" {
		t.Fatalf("order/categories wrong: %+v", evs)
	}
	if evs[0].At != 10 {
		t.Fatalf("timestamp = %v", evs[0].At)
	}
}

func TestRecorderBoundsAndDrops(t *testing.T) {
	e := sim.NewEngine()
	r := Attach(e, 2)
	for i := 0; i < 5; i++ {
		emit(e, sim.Time(i+1), "x: event")
	}
	e.Run()
	if len(r.Events()) != 2 || r.Dropped() != 3 {
		t.Fatalf("kept %d dropped %d", len(r.Events()), r.Dropped())
	}
}

func TestFilterAndCategories(t *testing.T) {
	e := sim.NewEngine()
	r := Attach(e, 0)
	emit(e, 1, "a.rma: wr")
	emit(e, 2, "pcie: write")
	emit(e, 3, "a.rma: notif")
	e.Run()
	if got := r.Filter("a.rma"); len(got) != 2 {
		t.Fatalf("filter = %d", len(got))
	}
	cats := r.Categories()
	if len(cats) != 2 || cats[0] != "a.rma" || cats[1] != "pcie" {
		t.Fatalf("categories = %v", cats)
	}
}

func TestWriteTextAndJSON(t *testing.T) {
	e := sim.NewEngine()
	r := Attach(e, 1)
	emit(e, 5, "pcie: hello")
	emit(e, 6, "pcie: dropped")
	e.Run()
	var txt bytes.Buffer
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "pcie: hello") || !strings.Contains(txt.String(), "dropped") {
		t.Fatalf("text output: %q", txt.String())
	}
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back []Event
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	// The retained event plus the synthetic drop-summary record: the JSON
	// form must not silently lose the Dropped() count.
	if len(back) != 2 || back[0].Msg != "pcie: hello" {
		t.Fatalf("json round trip: %+v", back)
	}
	if back[1].Kind != "drops" || back[1].Dropped != 1 {
		t.Fatalf("drop record: %+v", back[1])
	}
}

func TestWriteJSONEmptyTraceIsArray(t *testing.T) {
	e := sim.NewEngine()
	r := Attach(e, 0)
	e.Run()
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSpace(js.String())
	if out != "[]" {
		t.Fatalf("empty trace renders %q, want []", out)
	}
}

func TestFilterMatchesWholeSegments(t *testing.T) {
	e := sim.NewEngine()
	r := Attach(e, 0)
	emit(e, 1, "a: short name")
	emit(e, 2, "ack: not a match for 'a'")
	emit(e, 3, "a.rma: sub-component")
	emit(e, 4, "a.rma.wire: deeper sub-component")
	e.Run()
	if got := r.Filter("a"); len(got) != 3 {
		t.Fatalf("filter 'a' = %d events (%+v), want 3", len(got), got)
	}
	if got := r.Filter("a.rma"); len(got) != 2 {
		t.Fatalf("filter 'a.rma' = %d events, want 2", len(got))
	}
	if got := r.Filter("ac"); len(got) != 0 {
		t.Fatalf("filter 'ac' matched %d events, want 0", len(got))
	}
}

func TestFilterMatchesKind(t *testing.T) {
	e := sim.NewEngine()
	r := Attach(e, 0)
	e.At(1, func() { e.Tracev("a.rma", "fault", "fault: wire drop") })
	e.At(2, func() { e.Tracev("b.rma", "retry", "retry: resend") })
	e.Run()
	if got := r.Filter("fault"); len(got) != 1 || got[0].Cat != "a.rma" {
		t.Fatalf("filter 'fault' = %+v", got)
	}
	// A component filter must also see that component's structured events.
	if got := r.Filter("a.rma"); len(got) != 1 || got[0].Kind != "fault" {
		t.Fatalf("filter 'a.rma' = %+v", got)
	}
}

func TestAttachChains(t *testing.T) {
	e := sim.NewEngine()
	var prevGot []string
	e.TraceEv = func(at sim.Time, comp, kind, msg string) { prevGot = append(prevGot, msg) }
	r1 := Attach(e, 0)
	r2 := Attach(e, 0)
	emit(e, 1, "x: plain line")
	e.At(2, func() { e.Tracev("y", "k", "y: classified line") })
	e.At(3, func() { e.SpanClose(e.SpanOpen("z", "stage")) })
	e.Run()
	// The pre-existing hook keeps receiving everything.
	if len(prevGot) != 2 {
		t.Fatalf("previous hook got %d lines: %v", len(prevGot), prevGot)
	}
	for _, r := range []*Recorder{r1, r2} {
		if len(r.Events()) != 2 {
			t.Fatalf("recorder events = %d, want 2", len(r.Events()))
		}
		if len(r.Spans()) != 1 || r.Spans()[0].Comp != "z" {
			t.Fatalf("recorder spans = %+v", r.Spans())
		}
	}
}
