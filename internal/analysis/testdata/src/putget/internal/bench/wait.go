// Fixtures for the boundedwait analyzer: unbounded blocking waits are
// flagged outside tests; the ...Timeout variants and the wrapper ladder
// — every function transitively reachable through the call graph from a
// wait-named definition — stay clean.
package bench

import "putget/internal/core"

type endpoint struct{}

func (endpoint) DevWaitComplete()                       {}
func (endpoint) DevWaitCompleteTimeout(d int) bool      { return true }
func (endpoint) DevWaitNotifValue() (uint64, uint64)    { return 0, 0 }
func (endpoint) DevWaitNotifTimeout(d int) (int, bool)  { return 0, true }
func (endpoint) HostPollCQ()                            {}
func (endpoint) HostPollCQTimeout(d int) (uint64, bool) { return 0, true }

func hotLoop(ep endpoint) {
	ep.DevWaitComplete() // want `unbounded blocking wait DevWaitComplete outside a test: use the bounded DevWaitCompleteTimeout variant`
}

func notifValue(ep endpoint) uint64 {
	_, v := ep.DevWaitNotifValue() // want `unbounded blocking wait DevWaitNotifValue outside a test: use the bounded DevWaitNotifTimeout variant`
	return v
}

func boundedLoop(ep endpoint) bool {
	return ep.DevWaitCompleteTimeout(10)
}

func assistAck(seq uint64) bool {
	core.DevAwaitAssistAck(seq) // want `unbounded blocking wait DevAwaitAssistAck outside a test: use the bounded DevAwaitAssistAckTimeout variant`
	return core.DevAwaitAssistAckTimeout(seq+1, 10)
}

func allowedWait(ep endpoint) {
	ep.HostPollCQ() //putget:allow boundedwait -- fixture: completion guaranteed by construction in this rig
}

type adapter struct{ ep endpoint }

// DevWaitComplete delegates to the inner endpoint: the wrapper ladder by
// which transport adapters implement a wait in terms of core's is the
// wait's own definition, not a use of it — no finding.
func (a adapter) DevWaitComplete() {
	a.ep.DevWaitComplete()
}

// drainCQ is not itself named like a wait, but it is reachable from
// adapterDeep.DevWaitComplete below, so the call-graph exemption covers
// it: it is part of that wait's delegation ladder — no finding. (The
// old name-only rule would have flagged this helper.)
func drainCQ(ep endpoint) {
	ep.HostPollCQ()
}

type adapterDeep struct{ ep endpoint }

// DevWaitComplete implements the wait through a local helper: the
// transitive ladder.
func (a adapterDeep) DevWaitComplete() {
	drainCQ(a.ep)
}
