package bench

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"putget/internal/cluster"
	"putget/internal/core"
	"putget/internal/extoll"
	"putget/internal/gpusim"
	"putget/internal/ibsim"
	"putget/internal/sim"
)

// lossRates spans the property-test range: 0.1% to 20% per-packet drops.
var lossRates = []float64{0.001, 0.02, 0.05, 0.2}

// TestFaultLossyExtollPingPong checks that the EXTOLL link-level protocol
// delivers ping-pongs byte-identically under increasing loss (the
// measurement itself panics on payload corruption) and that the injector
// verdicts show up in the reliability counters.
func TestFaultLossyExtollPingPong(t *testing.T) {
	for _, rate := range lossRates {
		fp := faultParams(cluster.Default(), 7, rate)
		res := ExtollPingPong(fp, ExtHostControlled, 256, 20, 2)
		if res.HalfRTT <= 0 {
			t.Fatalf("rate %v: non-positive latency %v", rate, res.HalfRTT)
		}
		if res.Rel == nil {
			t.Fatalf("rate %v: missing reliability counters", rate)
		}
		if rate >= 0.05 && res.Rel.Retransmits == 0 {
			t.Errorf("rate %v: no retransmissions despite %d wire drops",
				rate, res.Rel.WireDrops)
		}
	}
}

// TestFaultLossyIBPingPong is the InfiniBand counterpart: the RC protocol
// must recover every write-with-immediate exchange (B's loop checks the
// immediates in order), and IBStream verifies the final payload bytes.
func TestFaultLossyIBPingPong(t *testing.T) {
	for _, rate := range lossRates {
		fp := faultParams(cluster.Default(), 7, rate)
		res := IBPingPong(fp, IBHostControlled, 256, 20, 2)
		if res.HalfRTT <= 0 {
			t.Fatalf("rate %v: non-positive latency %v", rate, res.HalfRTT)
		}
		bw := IBStream(fp, IBBufOnHost, 1024, 32) // panics on corrupted payload
		if bw.Rel == nil || (rate >= 0.05 && bw.Rel.Retransmits == 0) {
			t.Errorf("rate %v: stream rel counters %+v", rate, bw.Rel)
		}
	}
}

// TestFaultDeterminismSameSeed re-runs lossy measurements with the same
// seed: every virtual-time result and every counter must be bit-identical.
func TestFaultDeterminismSameSeed(t *testing.T) {
	fp := faultParams(cluster.Default(), 99, 0.05)
	e1 := ExtollPingPong(fp, ExtDirect, 512, 15, 1)
	e2 := ExtollPingPong(fp, ExtDirect, 512, 15, 1)
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("extoll lossy run diverged:\n%+v\n%+v", e1, e2)
	}
	i1 := IBPingPong(fp, IBBufOnHost, 512, 15, 1)
	i2 := IBPingPong(fp, IBBufOnHost, 512, 15, 1)
	if !reflect.DeepEqual(i1, i2) {
		t.Fatalf("IB lossy run diverged:\n%+v\n%+v", i1, i2)
	}
	// A different seed must draw a different fault pattern.
	o := ExtollPingPong(faultParams(cluster.Default(), 100, 0.05), ExtDirect, 512, 15, 1)
	if reflect.DeepEqual(e1.Rel, o.Rel) && e1.HalfRTT == o.HalfRTT {
		t.Fatalf("different seeds produced identical lossy runs")
	}
}

// TestFaultRetryExhaustionIB drives an RC QP into total loss: the
// requester must exhaust its retries, error the QP, complete the head WQE
// with a retry-exceeded CQE, and leave pollers bounded — all in finite
// virtual time.
func TestFaultRetryExhaustionIB(t *testing.T) {
	fp := faultParams(cluster.Default(), 3, 1.0)
	r := newIBRig(fp, 64)
	defer r.tb.Shutdown()
	qa := r.va.CreateQP(64, 16, 64, false)
	qb := r.vb.CreateQP(64, 16, 64, false)
	core.ConnectVQPs(qa, qb)

	var (
		cqe       ibsim.CQE
		ok, again bool
		tEnd      sim.Time
	)
	done := sim.NewCompletion(r.tb.E)
	r.tb.E.Spawn("a.cpu", func(p *sim.Proc) {
		r.va.HostPostSend(p, qa, r.pingWQE(64, ibsim.FlagSignaled, 1))
		cqe, ok = r.va.HostPollCQTimeout(p, qa.SendCQ, 5*sim.Millisecond)
		_, again = r.va.HostPollCQTimeout(p, qa.SendCQ, 200*sim.Microsecond)
		tEnd = p.Now()
		done.Complete()
	})
	r.tb.E.Run()
	mustDone(done, "IB retry-exhaustion poller")
	if !ok {
		t.Fatal("no CQE before the poll deadline")
	}
	if cqe.Status != ibsim.StatusRetryExc {
		t.Fatalf("CQE status = %d, want retry-exceeded (%d)", cqe.Status, ibsim.StatusRetryExc)
	}
	if again {
		t.Fatal("second poll returned a CQE on an emptied error QP")
	}
	if tEnd > sim.Time(0).Add(10*sim.Millisecond) {
		t.Fatalf("exhaustion took %v of virtual time; expected bounded", tEnd)
	}
	if st := r.tb.A.IB.Stats(); st.RetryExhausted == 0 || st.Timeouts == 0 {
		t.Fatalf("stats %+v: expected retry exhaustion after timeouts", st)
	}
}

// TestFaultExtollRequesterTimeout issues a Get into a black hole: the
// link dies after its retries, the tracked response is declared lost, and
// the origin port receives an error notification flagged as a timeout.
func TestFaultExtollRequesterTimeout(t *testing.T) {
	fp := faultParams(cluster.Default(), 3, 1.0)
	r := newExtollRig(fp, 64)
	defer r.tb.Shutdown()
	r.openPorts(1)
	r.fillPayload(64)

	var (
		res  core.NotifResult
		ok   bool
		tEnd sim.Time
	)
	done := sim.NewCompletion(r.tb.E)
	r.tb.E.Spawn("a.cpu", func(p *sim.Proc) {
		r.ra.HostGet(p, 0, r.bSendN, r.aRecvN, 64, extoll.FlagCompNotif)
		res, ok = r.ra.HostWaitNotifTimeout(p, 0, extoll.ClassCompleter, 2*sim.Millisecond)
		tEnd = p.Now()
		done.Complete()
	})
	r.tb.E.Run()
	mustDone(done, "EXTOLL requester-timeout waiter")
	if !ok {
		t.Fatal("no notification before the wait deadline")
	}
	if !res.Err || !res.Timeout {
		t.Fatalf("notification %+v: want error + timeout flags", res)
	}
	if tEnd > sim.Time(0).Add(5*sim.Millisecond) {
		t.Fatalf("timeout notification took %v; expected bounded", tEnd)
	}
	if st := r.tb.A.Extoll.Stats(); st.ReqTimeouts == 0 || st.LinkDowns == 0 {
		t.Fatalf("stats %+v: expected a request timeout on a dead link", st)
	}
}

// TestFaultDevWaitNotifTimeout checks the GPU-side bounded wait: a kernel
// polling an empty notification ring gives up at its deadline instead of
// spinning forever.
func TestFaultDevWaitNotifTimeout(t *testing.T) {
	fp := faultParams(cluster.Default(), 3, 1.0)
	r := newExtollRig(fp, 64)
	defer r.tb.Shutdown()
	r.openPorts(1)

	var (
		ok   bool
		tEnd sim.Time
	)
	done := r.tb.B.GPU.Launch(gpusim.KernelConfig{Blocks: 1}, func(w *gpusim.Warp) {
		_, ok = r.rb.DevWaitNotifTimeout(w, 0, extoll.ClassCompleter, 200*sim.Microsecond)
		tEnd = w.Now()
	})
	r.tb.E.Run()
	mustDone(done, "dev bounded notification wait")
	if ok {
		t.Fatal("bounded wait claimed a notification from an empty ring")
	}
	if limit := sim.Time(0).Add(400 * sim.Microsecond); tEnd > limit {
		t.Fatalf("bounded wait returned at %v; deadline was 200us", tEnd)
	}
}

// TestFaultBlackoutRecovery checks the 100%-loss window end to end: every
// ping-pong iteration still completes (the protocol retransmits across
// the outage) and the run terminates in bounded virtual time.
func TestFaultBlackoutRecovery(t *testing.T) {
	fp := cluster.Default()
	fp.FaultInject = true
	fp.FaultSeed = 5
	fp.FaultBlackoutStart = sim.Time(0).Add(30 * sim.Microsecond)
	fp.FaultBlackoutEnd = fp.FaultBlackoutStart.Add(60 * sim.Microsecond)
	const iters = 100
	completions := extollBlackoutRun(fp, 64, iters)
	if len(completions) != iters {
		t.Fatalf("completed %d/%d iterations", len(completions), iters)
	}
	var after sim.Time
	for _, c := range completions {
		if c >= fp.FaultBlackoutEnd {
			after = c
			break
		}
	}
	if after == 0 {
		t.Fatal("no completion after the blackout window")
	}
	if rec := after.Sub(fp.FaultBlackoutEnd); rec > 100*sim.Microsecond {
		t.Fatalf("recovery latency %v; want under two retransmission rounds", rec)
	}
}

// TestFaultDeadLinkFailsCell runs the putgetsweep lat1k cell at 99% loss:
// the EXTOLL link dies, so the GPU ping-pong can never finish. The bounded
// fault run must fail it with mustDone's deadlock panic instead of
// polling for the pong forever.
func TestFaultDeadLinkFailsCell(t *testing.T) {
	p := cluster.Default()
	p.FaultInject, p.FaultSeed, p.FaultDropRate = true, 42, 0.99
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		ExtollPingPong(p, ExtDirect, 1024, 10, 2)
	}()
	select {
	case v := <-got:
		if msg, _ := v.(string); !strings.Contains(msg, "bench: deadlock") {
			t.Fatalf("dead-link ping-pong ended with %v, want a deadlock panic", v)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("dead-link ping-pong still running after 60 s of wall time")
	}
}

// TestFaultLongLossyRunCompletes runs a lossy ping-pong whose link stays
// up for more than one faultHorizon of virtual time: runTestbed must keep
// going while the link is alive, so every iteration completes.
func TestFaultLongLossyRunCompletes(t *testing.T) {
	p := cluster.Default()
	p.FaultInject, p.FaultSeed, p.FaultDropRate = true, 42, 0.05
	const iters = 5000
	r := ExtollPingPong(p, ExtDirect, 1024, iters, 2)
	if r.Rel.LinkDowns != 0 || r.Rel.Retransmits == 0 {
		t.Fatalf("link downs %d, retransmits %d; want a live link that retransmitted", r.Rel.LinkDowns, r.Rel.Retransmits)
	}
	if run := r.HalfRTT * 2 * iters; run <= faultHorizon {
		t.Fatalf("run took %v of virtual time; want more than faultHorizon (%v)", run, faultHorizon)
	}
}
