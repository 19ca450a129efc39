package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"putget/internal/trace"
)

// render concatenates the per-size text outputs and renders the -json
// document and the merged Perfetto document for one worker count.
func render(t *testing.T, fabric string, sizes []int, parallel int, drop float64) (txt, js, perfetto string) {
	t.Helper()
	trc := traceExtoll
	if fabric == "ib" {
		trc = traceIB
	}
	opt := dumpOpts{perfetto: true}
	results, replays, perf := runTraces(trc, fabric, sizes, parallel, opt, drop, 7)
	var b strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		b.WriteString(r.Output)
	}
	var jdoc, pdoc bytes.Buffer
	if err := writeJSON(&jdoc, replays); err != nil {
		t.Fatal(err)
	}
	if err := trace.WritePerfetto(&pdoc, perf); err != nil {
		t.Fatal(err)
	}
	return b.String(), jdoc.String(), pdoc.String()
}

// TestTraceParallelDeterminism: text traces, the -json document and the
// merged Perfetto export must be byte-identical between -parallel 1 and
// -parallel 8, with and without fault injection.
func TestTraceParallelDeterminism(t *testing.T) {
	sizes := []int{64, 4096}
	for _, tc := range []struct {
		fabric string
		drop   float64
	}{
		{"extoll", 0}, {"ib", 0}, {"extoll", 0.2},
	} {
		txt1, js1, perf1 := render(t, tc.fabric, sizes, 1, tc.drop)
		txt8, js8, perf8 := render(t, tc.fabric, sizes, 8, tc.drop)
		if txt1 != txt8 {
			t.Fatalf("%s drop=%v: text diverged between -parallel 1 and 8", tc.fabric, tc.drop)
		}
		if js1 != js8 {
			t.Fatalf("%s drop=%v: json diverged between -parallel 1 and 8", tc.fabric, tc.drop)
		}
		if perf1 != perf8 {
			t.Fatalf("%s drop=%v: perfetto diverged between -parallel 1 and 8", tc.fabric, tc.drop)
		}
	}
}

// TestPerfettoExportShape: the merged document is valid JSON, carries one
// process per replay and a nonzero number of spans.
func TestPerfettoExportShape(t *testing.T) {
	_, _, doc := render(t, "extoll", []int{64, 1024}, 0, 0)
	var parsed struct {
		TraceEvents []trace.PerfettoEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(doc), &parsed); err != nil {
		t.Fatalf("perfetto document not valid JSON: %v", err)
	}
	pids := map[int]bool{}
	spans := 0
	for _, ev := range parsed.TraceEvents {
		pids[ev.Pid] = true
		if ev.Ph == "X" {
			spans++
		}
	}
	if len(pids) != 2 {
		t.Fatalf("processes = %d, want one per replay", len(pids))
	}
	if spans == 0 {
		t.Fatal("no complete spans in export")
	}
}

// TestJSONIsOneDocument: -json prints a single JSON array with one object
// per replay, in the listed order.
func TestJSONIsOneDocument(t *testing.T) {
	_, doc, _ := render(t, "ib", []int{64, 1024}, 0, 0)
	var replays []struct {
		Fabric     string
		Size       int
		CompleteAt int64
		Events     []trace.Event
	}
	if err := json.Unmarshal([]byte(doc), &replays); err != nil {
		t.Fatalf("-json output is not one JSON document: %v\n%s", err, doc)
	}
	if len(replays) != 2 {
		t.Fatalf("replays = %d, want 2", len(replays))
	}
	for i, size := range []int{64, 1024} {
		r := replays[i]
		if r.Fabric != "ib" || r.Size != size || r.CompleteAt <= 0 || len(r.Events) == 0 {
			t.Fatalf("replay %d = %s/%dB complete at %d with %d events, want ib/%dB with a completion and events",
				i, r.Fabric, r.Size, r.CompleteAt, len(r.Events), size)
		}
	}
}
