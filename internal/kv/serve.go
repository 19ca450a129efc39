package kv

import (
	"fmt"
	"math"
	"sort"

	"putget/internal/cluster"
	"putget/internal/faults"
	"putget/internal/hostsim"
	"putget/internal/memspace"
	"putget/internal/sim"
	"putget/internal/transport"
)

// Replica-side cost model: the storage engine is deliberately coarse —
// the paper's put/get fabric is the object of study, the KV engine just
// has to cost something plausible per operation.
const (
	applyCost   = 300 * sim.Nanosecond // per handled message (lookup + LWW merge)
	handoffCost = 300 * sim.Nanosecond // per hinted record flushed home
	prepostN    = 512                  // arrival slots preposted per connection side
)

// arrival is one precomputed client request, scheduled before the load
// phase starts so the offered-load schedule is independent of anything
// the protocol does.
type arrival struct {
	at     sim.Duration // offset from load start
	client int
	isPut  bool
	key    int
}

// conn is one coordinator↔replica connection: endpoints, the tx mailbox,
// and the four monotone slot cursors. Slots are never reused — buffers
// are sized for the worst-case message count — so the i-th remote
// completion on a side always pairs with slot i (the fabric's reliability
// protocol delivers exactly-once in order, and IB completions carry the
// immediate while EXTOLL's carry nothing, so cursor demux is the only
// portable scheme).
type conn struct {
	idx  int
	a, b transport.Endpoint
	txq  *sim.Chan[wireMsg]

	txCur  int // next A-side request slot to write
	rxCur  int // next A-side reply slot to reap
	btxCur int // next B-side reply slot to write
	brxCur int // next B-side request slot to reap
}

// server wires one serving cell together: buffers, connections, replica
// stores, and the shared metrics block.
type server struct {
	cfg  Config
	e    *sim.Engine
	cpuA *hostsim.CPU
	cpuB *hostsim.CPU

	conns  []*conn
	coord  *coordinator
	stores []*replicaStore
	m      *Metrics

	t0, tEnd  sim.Time
	outage    []faults.Window // absolute per-replica outage window
	hasOutage []bool
	dead      []bool // replica died permanently (open-ended outage)

	capSlots  int
	slotBytes int

	aTx, aRx, bRx, bTx     memspace.Addr
	aTxR, aRxR, bRxR, bTxR transport.Region
}

// off locates slot s of connection c inside each of the four buffers
// (they share one layout).
func (s *server) off(c, slot int) uint64 {
	return uint64((c*s.capSlots + slot) * s.slotBytes)
}

// fitKVParams shrinks the simulated memories to what a serving cell
// needs; testbeds are rebuilt per cell and Go would otherwise touch
// hundreds of megabytes of zeroed pages each time.
func fitKVParams(p cluster.Params) cluster.Params {
	if need := uint64(64 << 20); p.GPUDevMemSize > need {
		p.GPUDevMemSize = need
	}
	if need := uint64(64 << 20); p.HostRAMSize > need {
		p.HostRAMSize = need
	}
	return p
}

// Run executes one serving cell on fabric kind k and returns its
// metrics. The cell owns an isolated engine and testbed, so cells can
// shard freely across runner workers.
func Run(k transport.Kind, p cluster.Params, cfg Config) Metrics {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if k == transport.KindExtoll && cfg.Replicas > p.ExtPorts {
		panic(fmt.Sprintf("kv: %d replicas exceed the %d EXTOLL ports", cfg.Replicas, p.ExtPorts))
	}
	p = fitKVParams(p)
	var tb *cluster.Testbed
	if k == transport.KindExtoll {
		tb = cluster.NewExtollPair(p)
	} else {
		tb = cluster.NewIBPair(p)
	}
	defer tb.Shutdown()
	if cfg.Observer != nil {
		tb.E.SetObserver(cfg.Observer)
	}
	tr := transport.New(k, tb)

	s := newServer(tr, cfg)

	// Phase 1: prepost arrival slots on every connection side (one setup
	// proc per connection so the virtual setup cost is parallel), then run
	// to quiescence. Load starts on a clean testbed at t0.
	for _, c := range s.conns {
		c := c
		tb.E.Spawn(fmt.Sprintf("kv.setup%d", c.idx), func(p *sim.Proc) {
			c.a.HostPrepostArrivals(p, prepostN)
			c.b.HostPrepostArrivals(p, prepostN)
		})
	}
	tb.E.Run()
	t0 := tb.E.Now()

	// Phase 2: the whole offered-load schedule is precomputed, so the end
	// of the run is known before the first request fires — every loop in
	// the cell is bounded by tEnd.
	arrivals := buildArrivals(cfg)
	var tLast sim.Duration
	for _, a := range arrivals {
		if a.at > tLast {
			tLast = a.at
		}
	}
	s.t0 = t0
	s.tEnd = t0.Add(tLast + cfg.Drain)
	for _, o := range cfg.Outages {
		w := faults.Window{Start: t0.Add(o.Start)}
		if o.Dur > 0 {
			w.End = t0.Add(o.Start + o.Dur)
		}
		s.outage[o.Replica] = w
		s.hasOutage[o.Replica] = true
	}
	s.coord = newCoordinator(s)

	for _, c := range s.conns {
		c := c
		tb.E.Spawn(fmt.Sprintf("a.kv.tx%d", c.idx), func(p *sim.Proc) { s.txLoop(p, c) })
		tb.E.Spawn(fmt.Sprintf("a.kv.rx%d", c.idx), func(p *sim.Proc) { s.rxLoop(p, c) })
		tb.E.Spawn(fmt.Sprintf("b.kv.rep%d", c.idx), func(p *sim.Proc) { s.replicaLoop(p, c) })
	}
	tb.E.Spawn("kv.monitor", func(p *sim.Proc) { s.monitorLoop(p) })
	for _, a := range arrivals {
		a := a
		tb.E.At(t0.Add(a.at), func() { s.coord.launch(a) })
	}
	tb.E.Run()

	m := *s.m
	m.Elapsed = s.tEnd.Sub(t0)
	m.Events = tb.E.Executed()
	return m
}

// newServer allocates the shmem-style buffer layout and opens one
// connection per replica. Host RAM holds four symmetric buffers — A's
// request staging and reply landing, B's request landing and reply
// staging — each split into per-connection segments of capSlots slots.
func newServer(tr transport.Transport, cfg Config) *server {
	cl := tr.Cluster()
	a, b := cl.Node(0), cl.Node(1)
	s := &server{
		cfg:       cfg,
		e:         cl.E,
		cpuA:      a.CPU,
		cpuB:      b.CPU,
		conns:     make([]*conn, cfg.Replicas),
		stores:    make([]*replicaStore, cfg.Replicas),
		m:         &Metrics{},
		outage:    make([]faults.Window, cfg.Replicas),
		hasOutage: make([]bool, cfg.Replicas),
		dead:      make([]bool, cfg.Replicas),
		slotBytes: cfg.SlotBytes,
	}
	// Worst-case slots per connection: every attempt of every request can
	// route at most one message to a given replica, plus pings, flushes
	// and read-repairs; replies mirror requests one-for-one. The margin
	// covers the probe/flush/repair traffic.
	s.capSlots = cfg.Clients*cfg.PerClient*(cfg.MaxRetries+2) + 4096
	seg := uint64(s.capSlots * cfg.SlotBytes)
	total := seg * uint64(cfg.Replicas)
	s.aTx = a.AllocHost(total)
	s.aRx = a.AllocHost(total)
	s.bRx = b.AllocHost(total)
	s.bTx = b.AllocHost(total)
	s.aTxR = tr.Register(a, s.aTx, total)
	s.aRxR = tr.Register(a, s.aRx, total)
	s.bRxR = tr.Register(b, s.bRx, total)
	s.bTxR = tr.Register(b, s.bTx, total)
	hint := transport.ConnHint{SendEntries: 1024, RecvEntries: 2 * prepostN, CompEntries: 1024}
	for r := 0; r < cfg.Replicas; r++ {
		ea, eb := tr.Connect(r, hint)
		s.conns[r] = &conn{idx: r, a: ea, b: eb, txq: sim.NewChan[wireMsg](cl.E)}
		s.stores[r] = newReplicaStore(cfg.Keys, cfg.Replicas)
	}
	return s
}

// buildArrivals precomputes every client's open-loop schedule: seeded
// exponential interarrival gaps, a put/get coin, and a Zipf-skewed key
// draw, one independent splitmix64 stream per client.
func buildArrivals(cfg Config) []arrival {
	cdf := zipfCDF(cfg.Keys, cfg.Zipf)
	out := make([]arrival, 0, cfg.Clients*cfg.PerClient)
	for cl := 0; cl < cfg.Clients; cl++ {
		rng := faults.NewSplitmix64(faults.DeriveSeed(cfg.Seed, 0x10000+uint64(cl)))
		var t sim.Duration
		for i := 0; i < cfg.PerClient; i++ {
			t += sim.Duration(-math.Log(1-rng.Float64()) * float64(cfg.MeanGap))
			out = append(out, arrival{
				at:     t,
				client: cl,
				isPut:  rng.Float64() < cfg.PutFrac,
				key:    zipfDraw(cdf, rng.Float64()),
			})
		}
	}
	return out
}

// zipfCDF tabulates the cumulative distribution of a Zipf(s) draw over n
// keys (key 0 hottest).
func zipfCDF(n int, s float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		w[k] = 1 / math.Pow(float64(k+1), s)
		sum += w[k]
	}
	acc := 0.0
	for k := 0; k < n; k++ {
		acc += w[k] / sum
		w[k] = acc
	}
	w[n-1] = 1
	return w
}

func zipfDraw(cdf []float64, u float64) int {
	return sort.SearchFloat64s(cdf, u)
}

// txLoop drains one connection's tx mailbox: encode into the next
// staging slot, one put with a remote completion. It parks on the
// mailbox between messages and is reaped by the testbed shutdown.
func (s *server) txLoop(p *sim.Proc, c *conn) {
	scratch := make([]byte, s.slotBytes)
	for {
		m := c.txq.Recv(p)
		if c.txCur >= s.capSlots {
			panic("kv: tx slots exhausted")
		}
		off := s.off(c.idx, c.txCur)
		c.txCur++
		m.encode(scratch)
		s.cpuA.Write(p, s.aTx+memspace.Addr(off), scratch)
		c.a.HostPut(p, s.aTxR, off, s.bRxR, off, s.slotBytes, transport.FlagRemoteComp)
	}
}

// rxLoop reaps replies on one connection until the run ends, feeding the
// coordinator and replenishing one arrival slot per completion.
func (s *server) rxLoop(p *sim.Proc, c *conn) {
	scratch := make([]byte, s.slotBytes)
	for {
		now := p.Now()
		if now >= s.tEnd {
			return
		}
		if _, ok := c.a.HostWaitCompleteTimeout(p, transport.CompRemote, s.tEnd.Sub(now)); !ok {
			continue
		}
		if c.rxCur >= s.capSlots {
			panic("kv: rx slots exhausted")
		}
		off := s.off(c.idx, c.rxCur)
		c.rxCur++
		s.cpuA.Read(p, s.aRx+memspace.Addr(off), scratch)
		c.a.HostPrepostArrivals(p, 1)
		s.coord.onReply(c.idx, decodeMsg(scratch))
	}
}

// replicaLoop is one replica's server thread: reap a request, run the
// storage engine, reply. Outage windows model replica failure above the
// fabric — the thread simply stops reaping (a bounded window is a
// blackout it sleeps through; an open-ended one is death).
func (s *server) replicaLoop(p *sim.Proc, c *conn) {
	r := c.idx
	st := s.stores[r]
	scratch := make([]byte, s.slotBytes)
	for {
		now := p.Now()
		if now >= s.tEnd {
			return
		}
		if s.hasOutage[r] {
			w := s.outage[r]
			if w.Contains(now) {
				if w.End == 0 {
					s.dead[r] = true
					return
				}
				p.SleepUntil(w.End)
				continue
			}
		}
		wait := s.tEnd.Sub(now)
		if s.hasOutage[r] {
			if w := s.outage[r]; now < w.Start {
				if d := w.Start.Sub(now); d < wait {
					wait = d
				}
			}
		}
		if _, ok := c.b.HostWaitCompleteTimeout(p, transport.CompRemote, wait); !ok {
			continue
		}
		if c.brxCur >= s.capSlots {
			panic("kv: request slots exhausted")
		}
		off := s.off(r, c.brxCur)
		c.brxCur++
		s.cpuB.Read(p, s.bRx+memspace.Addr(off), scratch)
		c.b.HostPrepostArrivals(p, 1)
		s.handle(p, c, st, decodeMsg(scratch), scratch)
	}
}

// handle runs the storage engine for one request.
func (s *server) handle(p *sim.Proc, c *conn, st *replicaStore, m wireMsg, scratch []byte) {
	s.cpuB.Compute(p, applyCost)
	switch m.op {
	case opPut:
		in := rec{ver: m.ver, writer: m.writer, val: m.val}
		switch {
		case m.flg&flagHinted != 0:
			st.addHint(int(m.aux), int(m.key), in)
			s.m.Hints++
		case m.flg&flagRepair != 0:
			var span sim.SpanID
			if s.e.Observing() {
				span = s.e.SpanOpen("b.kv", "kv.repair")
			}
			st.apply(int(m.key), in)
			s.e.SpanClose(span)
		default:
			st.apply(int(m.key), in)
		}
		if m.flg&flagNoReply == 0 {
			s.reply(p, c, wireMsg{id: m.id, op: opPutAck, key: m.key, aux: m.aux}, scratch)
		}
	case opGet:
		got := st.recs[m.key]
		s.reply(p, c, wireMsg{
			id: m.id, op: opGetRep, key: m.key,
			ver: got.ver, writer: got.writer, val: got.val, aux: m.aux,
		}, scratch)
	case opPing:
		s.reply(p, c, wireMsg{id: m.id, op: opPingRep, aux: uint64(c.idx)}, scratch)
	case opFlush:
		tgt := int(m.aux)
		hints := st.takeHints(tgt)
		if len(hints) == 0 {
			return
		}
		var span sim.SpanID
		if s.e.Observing() {
			span = s.e.SpanOpen("b.kv", "kv.handoff")
		}
		for _, h := range hints {
			s.cpuB.Compute(p, handoffCost)
			s.stores[tgt].apply(h.key, h.rec)
			s.m.Handoffs++
		}
		s.e.SpanClose(span)
	}
}

// reply stages a reply in the next B-side slot and puts it home.
func (s *server) reply(p *sim.Proc, c *conn, m wireMsg, scratch []byte) {
	if c.btxCur >= s.capSlots {
		panic("kv: reply slots exhausted")
	}
	off := s.off(c.idx, c.btxCur)
	c.btxCur++
	m.encode(scratch)
	s.cpuB.Write(p, s.bTx+memspace.Addr(off), scratch)
	c.b.HostPut(p, s.bTxR, off, s.aRxR, off, s.slotBytes, transport.FlagRemoteComp)
}

// monitorLoop samples replication lag on a fixed cadence. It is an
// oracle — it reads the stores directly and charges no simulated time —
// so the measurement cannot perturb the protocol. Dead replicas (an
// operator would have removed them) are excluded; blacked-out ones count,
// which is exactly what makes the blackout row's lag spike visible.
func (s *server) monitorLoop(p *sim.Proc) {
	for {
		now := p.Now()
		lag := s.sampleLag()
		if lag > s.m.MaxLag {
			s.m.MaxLag = lag
		}
		if now >= s.tEnd {
			s.m.EndLag = lag
			return
		}
		next := now.Add(s.cfg.SampleEvery)
		if next > s.tEnd {
			next = s.tEnd
		}
		p.SleepUntil(next)
	}
}

// sampleLag counts stale (key, replica) pairs: preference-list members
// holding something older than the newest copy among live members.
func (s *server) sampleLag() int {
	lag := 0
	for k := 0; k < s.cfg.Keys; k++ {
		var vmax rec
		for _, mbr := range s.coord.prefs[k] {
			if !s.dead[mbr] && s.stores[mbr].recs[k].newer(vmax) {
				vmax = s.stores[mbr].recs[k]
			}
		}
		if vmax.ver == 0 {
			continue
		}
		for _, mbr := range s.coord.prefs[k] {
			if !s.dead[mbr] && vmax.newer(s.stores[mbr].recs[k]) {
				lag++
			}
		}
	}
	return lag
}
