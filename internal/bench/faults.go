//putget:allow boundedwait -- fault experiments wait on the *reliable* fabric layer, which either delivers (retransmission) or panics the run (retry exhaustion); an application-level timeout would double-count the recovery the sweep measures

package bench

import (
	"fmt"
	"sort"
	"strings"

	"putget/internal/cluster"
	"putget/internal/extoll"
	"putget/internal/faults"
	"putget/internal/runner"
	"putget/internal/sim"
	"putget/internal/wire"
)

// RelCounters aggregates reliability-protocol and injector activity over
// one measurement, summed across both NICs and both wire directions.
type RelCounters struct {
	wire.RelStats         // go-back-N activity; IB's NaksSent includes RNR NAKs
	ReqTimeouts    uint64 // EXTOLL requester ops that timed out
	IcrcDrops      uint64
	RetryExhausted uint64 // IB QPs driven to ERR
	LinkDowns      uint64 // EXTOLL links declared dead
	WireDrops      uint64 // injector verdicts, both directions
	WireCorrupts   uint64
	WireDelays     uint64
}

// relCounters snapshots both nodes' reliability-protocol counters plus
// the wire verdicts. Nil when faults are off, so default-path results are
// unchanged.
func relCounters(tb *cluster.Testbed) *RelCounters {
	if tb.FaultsAB == nil {
		return nil
	}
	rc := &RelCounters{}
	for _, in := range []*faults.Injector{tb.FaultsAB, tb.FaultsBA} {
		st := in.Stats()
		rc.WireDrops += st.Dropped
		rc.WireCorrupts += st.Corrupted
		rc.WireDelays += st.Delayed
	}
	for _, n := range []*cluster.Node{tb.A, tb.B} {
		if n.Extoll != nil {
			st := n.Extoll.Stats()
			rc.RelStats.Add(st.RelStats)
			rc.ReqTimeouts += st.ReqTimeouts
			rc.IcrcDrops += st.IcrcDrops
			rc.LinkDowns += st.LinkDowns
		} else {
			st := n.IB.Stats()
			rc.RelStats.Add(st.RelStats)
			rc.NaksSent += st.RnrNaksSent
			rc.IcrcDrops += st.IcrcDrops
			rc.RetryExhausted += st.RetryExhausted
		}
	}
	return rc
}

// faultSweepRates are the per-packet wire loss probabilities of the
// degradation sweep. Corruption rides along at a quarter of each rate.
var faultSweepRates = []float64{0, 0.005, 0.02, 0.05}

// faultParams prepares one lossy-sweep configuration.
func faultParams(p cluster.Params, seed uint64, dropRate float64) cluster.Params {
	p.FaultInject = true
	p.FaultSeed = seed
	p.FaultDropRate = dropRate
	p.FaultCorruptRate = dropRate / 4
	return p
}

// FaultSweep measures ping-pong latency and streaming goodput as wire loss
// grows, for two control modes per fabric, with the reliability protocols
// cleaning up after the injector. All runs derive from one seed, so the
// whole report is reproducible bit for bit.
//
// The (fabric, mode) x loss-rate matrix is sharded across the harness
// worker pool (p.Parallel): every cell builds its own isolated engine and
// testbed, and the report is assembled in fixed matrix order, so the
// output bytes never depend on the worker count.
func FaultSweep(p cluster.Params, seed uint64) string {
	extModes := []ControlMode{ExtDirect, ExtHostControlled}
	ibModes := []ControlMode{IBBufOnHost, IBHostControlled}
	sections := []string{
		"EXTOLL " + extModes[0].String(), "EXTOLL " + extModes[1].String(),
		"InfiniBand " + ibModes[0].String(), "InfiniBand " + ibModes[1].String(),
	}

	// One cell per (section, loss rate): a latency run plus a goodput run.
	type cellSpec struct {
		section int
		rate    float64
	}
	type sweepPoint struct {
		lat LatencyResult
		bw  BandwidthResult
	}
	var cells []cellSpec
	for sec := range sections {
		for _, rate := range faultSweepRates {
			cells = append(cells, cellSpec{sec, rate})
		}
	}
	points := runner.Map(p.Parallel, cells, func(_ int, c cellSpec) sweepPoint {
		fp := faultParams(p, seed, c.rate)
		if c.section < 2 {
			m := extModes[c.section]
			return sweepPoint{ExtollPingPong(fp, m, 1024, 30, 2), ExtollStream(fp, m, 4096, 64)}
		}
		m := ibModes[c.section-2]
		return sweepPoint{IBPingPong(fp, m, 1024, 30, 2), IBStream(fp, m, 4096, 64)}
	})

	var b strings.Builder
	fmt.Fprintf(&b, "faultsweep: latency and goodput vs wire loss (seed %d)\n", seed)
	fmt.Fprintf(&b, "ping-pong 1KiB x30; stream 4KiB x64; corrupt rate = loss/4\n\n")

	header := func() {
		fmt.Fprintf(&b, "%-8s %12s %14s %6s %6s %6s %6s %6s %6s\n",
			"loss%", "halfRTT[us]", "goodput[MB/s]", "retx", "tmout", "naks", "icrc", "dup", "drops")
	}
	row := func(rate float64, lat LatencyResult, bw BandwidthResult) {
		rc := &RelCounters{}
		if lat.Rel != nil {
			*rc = *lat.Rel
		}
		if bw.Rel != nil {
			rc.RelStats.Add(bw.Rel.RelStats)
			rc.IcrcDrops += bw.Rel.IcrcDrops
			rc.WireDrops += bw.Rel.WireDrops
		}
		fmt.Fprintf(&b, "%-8.2f %12.3f %14.1f %6d %6d %6d %6d %6d %6d\n",
			rate*100, lat.HalfRTT.Microseconds(), bw.BytesPerSec/1e6,
			rc.Retransmits, rc.Timeouts, rc.NaksSent, rc.IcrcDrops, rc.DupRx, rc.WireDrops)
	}

	for sec, name := range sections {
		fmt.Fprintf(&b, "%s\n", name)
		header()
		for ri, rate := range faultSweepRates {
			pt := points[sec*len(faultSweepRates)+ri]
			row(rate, pt.lat, pt.bw)
		}
		b.WriteString("\n")
	}

	b.WriteString(BlackoutRecovery(p, seed))
	return b.String()
}

// BlackoutRecovery measures how long the EXTOLL host-controlled ping-pong
// takes to resume after a total-loss window. Five runs stagger the
// blackout start (and the drop-pattern seed), producing a small recovery
// -latency distribution; the blackout is kept shorter than
// MaxRetries x RetxTimeout so the link survives on retransmission alone.
func BlackoutRecovery(p cluster.Params, seed uint64) string {
	const (
		iters    = 400
		size     = 64
		blackout = 60 * sim.Microsecond
	)
	// The five staggered runs are independent simulations: shard them too.
	recoveries := runner.Map(p.Parallel, []int{0, 1, 2, 3, 4}, func(_, k int) sim.Duration {
		fp := p
		fp.FaultInject = true
		fp.FaultSeed = seed + uint64(k)
		fp.FaultDropRate = 0.002
		start := sim.Time(0).Add(sim.Duration(30+10*k) * sim.Microsecond)
		fp.FaultBlackoutStart = start
		fp.FaultBlackoutEnd = start.Add(blackout)
		completions := extollBlackoutRun(fp, size, iters)
		for _, t := range completions {
			if t >= fp.FaultBlackoutEnd {
				return t.Sub(fp.FaultBlackoutEnd)
			}
		}
		panic("bench: blackout run never recovered")
	})
	sort.Slice(recoveries, func(i, j int) bool { return recoveries[i] < recoveries[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "blackout recovery: EXTOLL host-controlled, %v total loss, 0.2%% residual loss\n", blackout)
	fmt.Fprintf(&b, "%-8s %s\n", "CDF", "recovery latency [us]")
	for i, r := range recoveries {
		fmt.Fprintf(&b, "%-8.2f %.3f\n", float64(i+1)/float64(len(recoveries)), r.Microseconds())
	}
	return b.String()
}

// extollBlackoutRun drives a host-controlled EXTOLL ping-pong and records
// the virtual time of each pong at A.
func extollBlackoutRun(p cluster.Params, size, iters int) []sim.Time {
	buf := uint64(size)
	if buf < 8 {
		buf = 8
	}
	r := newExtollRig(p, buf)
	defer r.tb.Shutdown()
	r.openPorts(1)
	r.fillPayload(size)
	flags := extoll.FlagReqNotif | extoll.FlagCompNotif
	completions := make([]sim.Time, 0, iters)

	doneA := sim.NewCompletion(r.tb.E)
	r.tb.E.Spawn("a.cpu", func(pr *sim.Proc) {
		for i := 1; i <= iters; i++ {
			r.ra.HostPut(pr, 0, r.aSendN, r.bRecvN, size, flags)
			r.ra.HostWaitNotif(pr, 0, extoll.ClassRequester)
			r.ra.HostWaitNotif(pr, 0, extoll.ClassCompleter)
			completions = append(completions, pr.Now())
		}
		doneA.Complete()
	})
	doneB := sim.NewCompletion(r.tb.E)
	r.tb.E.Spawn("b.cpu", func(pr *sim.Proc) {
		for i := 1; i <= iters; i++ {
			r.rb.HostWaitNotif(pr, 0, extoll.ClassCompleter)
			r.rb.HostPut(pr, 0, r.bSendN, r.aRecvN, size, flags)
			r.rb.HostWaitNotif(pr, 0, extoll.ClassRequester)
		}
		doneB.Complete()
	})
	runTestbed(r.tb)
	mustDone(doneA, "extoll blackout ping-pong A")
	mustDone(doneB, "extoll blackout ping-pong B")
	return completions
}
