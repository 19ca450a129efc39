package putget_test

import (
	"bytes"
	"strings"
	"testing"

	"putget"
	"putget/internal/gpusim"
)

func TestModeAndFabricStrings(t *testing.T) {
	cases := map[string]string{
		putget.ModeDirect.String():         "direct",
		putget.ModePollOnGPU.String():      "pollOnGPU",
		putget.ModeHostAssisted.String():   "hostAssisted",
		putget.ModeHostControlled.String(): "hostControlled",
		putget.FabricExtoll.String():       "extoll",
		putget.FabricInfiniband.String():   "infiniband",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestTestbedPingPongBothFabrics(t *testing.T) {
	for _, tb := range []*putget.Testbed{
		putget.NewExtollTestbed(putget.DefaultParams()),
		putget.NewIBTestbed(putget.DefaultParams()),
	} {
		res := tb.PingPong(putget.ModeHostControlled, 256, 5, 1)
		if res.HalfRTT <= 0 {
			t.Fatalf("%v: nonpositive latency", tb.Kind())
		}
		if res.Size != 256 || res.Iters != 5 {
			t.Fatalf("%v: result metadata wrong: %+v", tb.Kind(), res)
		}
	}
}

func TestTestbedStreamAndRate(t *testing.T) {
	tb := putget.NewExtollTestbed(putget.DefaultParams())
	bw := tb.Stream(putget.ModeHostControlled, 64<<10, 8)
	if bw.BytesPerSec < 1e8 || bw.BytesPerSec > 2e9 {
		t.Fatalf("implausible bandwidth %.3g", bw.BytesPerSec)
	}
	rate := tb.MessageRate(putget.AgentsHostControlled, 4, 40)
	if rate.MsgsPerSec < 1e4 || rate.MsgsPerSec > 1e8 {
		t.Fatalf("implausible rate %.3g", rate.MsgsPerSec)
	}
	if rate.Pairs != 4 || rate.Messages != 160 {
		t.Fatalf("rate metadata wrong: %+v", rate)
	}
}

func TestDeterminism(t *testing.T) {
	// The same experiment must produce bit-identical results across runs.
	run := func() putget.Duration {
		tb := putget.NewExtollTestbed(putget.DefaultParams())
		return tb.PingPong(putget.ModeDirect, 1024, 5, 1).HalfRTT
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); again != first {
			t.Fatalf("nondeterministic result: %v vs %v", first, again)
		}
	}
}

func TestRunExperimentUnknownID(t *testing.T) {
	if _, err := putget.RunExperiment("nope", putget.DefaultParams()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentsListComplete(t *testing.T) {
	ids := putget.Experiments()
	want := []string{"fig1a", "fig1b", "fig2", "table1", "fig3", "fig4a", "fig4b", "fig5", "table2"}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Fatalf("experiment %q missing from %v", w, ids)
		}
	}
}

func TestRunExperimentProducesTable(t *testing.T) {
	p := putget.DefaultParams()
	out, err := putget.RunExperiment("table1", p)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{"sysmem reads", "instructions executed", "device memory"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("table1 output missing %q:\n%s", needle, out)
		}
	}
}

func TestASICParamsFaster(t *testing.T) {
	d, a := putget.DefaultParams(), putget.ASICParams()
	if a.ExtClock <= d.ExtClock {
		t.Fatal("ASIC clock not higher")
	}
	// Host-controlled EXTOLL latency must improve on the ASIC.
	fl := putget.NewExtollTestbed(d).PingPong(putget.ModeHostControlled, 16, 5, 1).HalfRTT
	al := putget.NewExtollTestbed(a).PingPong(putget.ModeHostControlled, 16, 5, 1).HalfRTT
	if al >= fl {
		t.Fatalf("ASIC latency %v not below FPGA %v", al, fl)
	}
}

func TestClusterAccessForAdvancedUse(t *testing.T) {
	tb := putget.NewExtollTestbed(putget.DefaultParams()).Cluster()
	if tb.A.GPU == nil || tb.B.Extoll == nil {
		t.Fatal("cluster incomplete")
	}
	rma := putget.NewRMA(tb.A)
	if rma == nil {
		t.Fatal("RMA binding failed")
	}
	ib := putget.NewIBTestbed(putget.DefaultParams()).Cluster()
	if putget.NewVerbs(ib.B) == nil {
		t.Fatal("Verbs binding failed")
	}
}

func TestShmemFacade(t *testing.T) {
	p := putget.DefaultParams()
	p.GPUDevMemSize = 64 << 20
	p.HostRAMSize = 96 << 20
	w := putget.NewShmemWorld(p, 1<<20)
	defer w.Shutdown()
	if w.PE(0).Rank != 0 || w.PE(1).Rank != 1 {
		t.Fatal("PE ranks wrong")
	}
	off := w.Malloc(64)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := w.PE(0).HostWrite(off, payload); err != nil {
		t.Fatal(err)
	}
	w.Run(func(pe *putget.ShmemPE, warp *gpusim.Warp) {
		if pe.Rank == 0 {
			pe.PutTo(warp, 1, off, off, len(payload))
			pe.QuietAll(warp)
		}
	})
	got := make([]byte, len(payload))
	if err := w.PE(1).HostRead(off, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("rank 1 read %v after PutTo+QuietAll, want %v", got, payload)
	}
}

func TestMsgFacade(t *testing.T) {
	p := putget.DefaultParams()
	p.GPUDevMemSize = 64 << 20
	p.HostRAMSize = 96 << 20
	ea, eb, tb := putget.NewMsgPair(p)
	defer tb.Shutdown()
	if ea == nil || eb == nil || tb.A == nil {
		t.Fatal("message pair incomplete")
	}
}
