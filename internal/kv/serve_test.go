package kv

import (
	"reflect"
	"strings"
	"testing"

	"putget/internal/cluster"
	"putget/internal/sim"
	"putget/internal/transport"
)

// testConfig is a cell small enough for unit tests but busy enough to
// exercise quorums and retries.
func testConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.Clients = 2
	cfg.PerClient = 40
	cfg.Keys = 64
	return cfg
}

// faultyParams turns the reliability machinery on, as every sweep cell
// does.
func faultyParams(seed uint64) cluster.Params {
	p := cluster.Default()
	p.FaultInject = true
	p.FaultSeed = seed
	return p
}

func TestServeCleanRun(t *testing.T) {
	for _, k := range []transport.Kind{transport.KindExtoll, transport.KindIB} {
		cfg := testConfig(42)
		m := Run(k, faultyParams(7), cfg)
		want := cfg.Clients * cfg.PerClient
		if m.Requests != want {
			t.Fatalf("%v: requests = %d, want %d", k, m.Requests, want)
		}
		if m.Ok != want {
			t.Fatalf("%v: ok = %d of %d (qfail %d, tmout %d) on a clean wire",
				k, m.Ok, want, m.QuorumFails, m.Timeouts)
		}
		if len(m.Latencies) != m.Ok {
			t.Fatalf("%v: %d latencies for %d ok requests", k, len(m.Latencies), m.Ok)
		}
		if m.EndLag != 0 {
			t.Fatalf("%v: end lag = %d on a clean run", k, m.EndLag)
		}
		if m.Events == 0 || m.Elapsed <= 0 {
			t.Fatalf("%v: events %d elapsed %v", k, m.Events, m.Elapsed)
		}
	}
}

func TestServeDeterministic(t *testing.T) {
	cfg := testConfig(1234)
	cfg.Outages = []Outage{{Replica: 1, Start: 60 * sim.Microsecond, Dur: 80 * sim.Microsecond}}
	p := faultyParams(99)
	p.FaultDropRate = 0.01
	p.FaultCorruptRate = 0.0025
	a := Run(transport.KindExtoll, p, cfg)
	b := Run(transport.KindExtoll, p, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestServeBlackoutRecovery(t *testing.T) {
	for _, k := range []transport.Kind{transport.KindExtoll, transport.KindIB} {
		cfg := testConfig(42)
		cfg.Outages = []Outage{{Replica: 2, Start: 60 * sim.Microsecond, Dur: 120 * sim.Microsecond}}
		m := Run(k, faultyParams(7), cfg)
		if m.Ok == 0 {
			t.Fatalf("%v: nothing completed under a single-replica blackout", k)
		}
		if m.Timeouts == 0 || m.Rerouted == 0 {
			t.Fatalf("%v: blackout caused no timeouts (%d) or rerouting (%d)", k, m.Timeouts, m.Rerouted)
		}
		if m.Hints == 0 {
			t.Fatalf("%v: no hinted writes were stored during the blackout", k)
		}
		if m.Handoffs == 0 {
			t.Fatalf("%v: hints never flushed home after recovery", k)
		}
		if m.MaxLag == 0 {
			t.Fatalf("%v: blackout left no visible replication lag", k)
		}
		if m.EndLag != 0 {
			t.Fatalf("%v: replication lag %d after recovery, want 0 (maxlag %d, handoffs %d, repairs %d)",
				k, m.EndLag, m.MaxLag, m.Handoffs, m.Repairs)
		}
	}
}

func TestServeReplicaDeath(t *testing.T) {
	cfg := testConfig(42)
	cfg.Outages = []Outage{{Replica: 1, Start: 60 * sim.Microsecond}} // Dur 0: never returns
	m := Run(transport.KindExtoll, faultyParams(7), cfg)
	if m.Ok == 0 {
		t.Fatal("nothing completed after one replica died")
	}
	if m.Rerouted == 0 || m.Hints == 0 {
		t.Fatalf("death caused no rerouting (%d) or hints (%d)", m.Rerouted, m.Hints)
	}
	if m.Handoffs != 0 {
		t.Fatalf("%d handoffs to a replica that never recovered", m.Handoffs)
	}
	if m.EndLag != 0 {
		t.Fatalf("end lag %d: dead replicas must not count as stale", m.EndLag)
	}
}

func TestServeQuorumFailure(t *testing.T) {
	// RF equals the cluster size, so a dead replica has no fallback for
	// its read quorum slots; with R == RF every read must fail after the
	// death while writes survive on sloppy-quorum... except there is no
	// replica left outside the preference list either, so writes that
	// need the dead member's ack fail too.
	cfg := testConfig(42)
	cfg.Replicas = 3
	cfg.RF = 3
	cfg.R = 3
	cfg.W = 3
	cfg.Outages = []Outage{{Replica: 0, Start: 40 * sim.Microsecond}}
	m := Run(transport.KindExtoll, faultyParams(7), cfg)
	if m.QuorumFails == 0 {
		t.Fatalf("no quorum failures with R=W=RF=replicas and a dead replica (ok %d of %d)",
			m.Ok, m.Requests)
	}
	if m.Ok+m.QuorumFails != m.Requests {
		t.Fatalf("ok %d + qfail %d != requests %d", m.Ok, m.QuorumFails, m.Requests)
	}
}

// spanRecorder counts span opens/closes by kind.
type spanRecorder struct {
	kinds  map[sim.SpanID]string
	opens  map[string]int
	closes map[string]int
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{
		kinds:  map[sim.SpanID]string{},
		opens:  map[string]int{},
		closes: map[string]int{},
	}
}

func (r *spanRecorder) SpanOpen(id sim.SpanID, at sim.Time, comp, kind string, attrs []sim.Attr) {
	r.kinds[id] = kind
	r.opens[kind]++
}

func (r *spanRecorder) SpanClose(id sim.SpanID, at sim.Time) {
	r.closes[r.kinds[id]]++
}

func (r *spanRecorder) MetricSample(at sim.Time, comp, name string, value float64) {}
func (r *spanRecorder) Shutdown(at sim.Time)                                       {}

func TestServeSpans(t *testing.T) {
	rec := newSpanRecorder()
	cfg := testConfig(42)
	cfg.Outages = []Outage{{Replica: 2, Start: 60 * sim.Microsecond, Dur: 120 * sim.Microsecond}}
	cfg.Observer = rec
	m := Run(transport.KindExtoll, faultyParams(7), cfg)
	for _, kind := range []string{"kv.route", "kv.quorum", "kv.handoff"} {
		if rec.opens[kind] == 0 {
			t.Fatalf("no %s spans were opened", kind)
		}
		if rec.opens[kind] != rec.closes[kind] {
			t.Fatalf("%s spans unbalanced: %d open, %d closed", kind, rec.opens[kind], rec.closes[kind])
		}
	}
	if rec.opens["kv.route"] != m.Requests {
		t.Fatalf("%d kv.route spans for %d requests", rec.opens["kv.route"], m.Requests)
	}
	if rec.opens["kv.handoff"] == 0 && m.Handoffs > 0 {
		t.Fatalf("handoffs happened but no kv.handoff span")
	}
}

func TestSweepParallelInvariance(t *testing.T) {
	cfg := testConfig(42)
	cfg.Clients = 2
	cfg.PerClient = 24
	plans := DefaultPlans()[:3] // loss-free, lossy, blackout
	p1 := cluster.Default()
	p1.Parallel = 1
	p8 := cluster.Default()
	p8.Parallel = 8
	out1 := Sweep(p1, cfg, plans)
	out8 := Sweep(p8, cfg, plans)
	if out1 != out8 {
		t.Fatalf("sweep output depends on worker count:\n--- parallel=1\n%s\n--- parallel=8\n%s", out1, out8)
	}
	for _, want := range []string{"loss-free", "lossy", "blackout", "EXTOLL", "InfiniBand"} {
		if !strings.Contains(out1, want) {
			t.Fatalf("sweep output missing %q:\n%s", want, out1)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(1).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero replicas", func(c *Config) { c.Replicas = 0 }},
		{"rf above replicas", func(c *Config) { c.RF = c.Replicas + 1 }},
		{"r above rf", func(c *Config) { c.R = c.RF + 1 }},
		{"w above rf", func(c *Config) { c.W = c.RF + 1 }},
		{"no clients", func(c *Config) { c.Clients = 0 }},
		{"zero gap", func(c *Config) { c.MeanGap = 0 }},
		{"bad put fraction", func(c *Config) { c.PutFrac = 1.5 }},
		{"slot below header", func(c *Config) { c.SlotBytes = slotHeaderBytes - 8 }},
		{"zero timeout", func(c *Config) { c.AttemptTimeout = 0 }},
		{"negative retries", func(c *Config) { c.MaxRetries = -1 }},
		{"outage out of range", func(c *Config) { c.Outages = []Outage{{Replica: 99}} }},
	}
	for _, c := range cases {
		cfg := DefaultConfig(1)
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted an invalid config", c.name)
		}
	}
}

// TestServeCellAllocs guards one default kvserve cell per fabric on
// allocs/op, the machine-independent cost of the serving path. The
// ceilings are 1.15x the counts measured with posted writes copying
// their bytes into pooled ops, so control-path buffers stay on the stack
// (14,655 and 27,865 with a heap buffer per notification, CQE, WQE and
// MMIO store; 26,785 and 59,849 with a closure per hop and per write).
func TestServeCellAllocs(t *testing.T) {
	p := faultyParams(42)
	cfg := DefaultConfig(42)
	for _, tc := range []struct {
		kind transport.Kind
		base float64
	}{{transport.KindExtoll, 8913}, {transport.KindIB, 11257}} {
		got := testing.AllocsPerRun(1, func() { Run(tc.kind, p, cfg) })
		if limit := 1.15 * tc.base; got > limit {
			t.Errorf("%v: %.0f allocs/op, ceiling %.0f", tc.kind, got, limit)
		}
	}
}
