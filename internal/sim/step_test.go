package sim

import (
	"reflect"
	"testing"
)

// stamp is one stage boundary of the subject: when it was reached and
// how many events the engine had executed by then.
type stamp struct {
	at       Time
	executed uint64
}

// waitWorld is the environment both subjects of
// TestCallbackFormsMatchProcs wait on: a unit-capacity resource held
// until t=10, a signal broadcast at 20, a completion resolved at 30 and
// a mailbox that receives two items at 40.
type waitWorld struct {
	e  *Engine
	r  *Resource
	s  *Signal
	c  *Completion
	ch *Chan[int]
}

func newWaitWorld() *waitWorld {
	e := NewEngine()
	w := &waitWorld{e: e, r: NewResource(e, 1), s: NewSignal(e), c: NewCompletion(e), ch: NewChan[int](e)}
	e.Spawn("holder", func(p *Proc) {
		w.r.Acquire(p)
		p.Sleep(10)
		w.r.Release()
	})
	e.Spawn("env", func(p *Proc) {
		p.SleepUntil(20)
		w.s.Broadcast()
		p.SleepUntil(30)
		w.c.Complete()
		p.SleepUntil(40)
		w.ch.Send(1)
		w.ch.Send(2)
	})
	return w
}

// stepSubject walks the waits of the process subject with callbacks.
type stepSubject struct {
	Step[*stepSubject]
	w     *waitWorld
	log   []stamp
	recvF func()
}

func (s *stepSubject) mark() { s.log = append(s.log, stamp{s.w.e.Now(), s.w.e.Executed()}) }

func (s *stepSubject) start() { s.w.r.AcquireFunc(s.Then((*stepSubject).acquired)) }

func (s *stepSubject) acquired() {
	s.mark()
	s.After(3, (*stepSubject).held)
}

func (s *stepSubject) held() {
	s.mark()
	s.w.r.Release()
	s.w.r.AcquireFunc(s.Then((*stepSubject).reacquired))
}

func (s *stepSubject) reacquired() {
	s.mark()
	s.w.r.Release()
	s.w.s.WaitFunc(s.Then((*stepSubject).signalled))
}

func (s *stepSubject) signalled() {
	s.mark()
	s.w.c.WaitFunc(s.Then((*stepSubject).completed))
}

func (s *stepSubject) completed() {
	s.mark()
	s.w.c.WaitFunc(s.Then((*stepSubject).recompleted))
}

func (s *stepSubject) recompleted() {
	s.mark()
	s.recv()
}

// recv takes both items, waiting for the mailbox when it is empty.
func (s *stepSubject) recv() {
	for len(s.log) < 8 {
		if _, ok := s.w.ch.TryRecv(); !ok {
			s.w.ch.WaitFunc(s.recvF)
			return
		}
		s.mark()
	}
}

// TestCallbackFormsMatchProcs holds each callback-form wait to its
// blocking twin: a process and a Step machine that acquire a resource
// (queued, then free), hold it, wait on a signal, a completion (pending,
// then resolved) and a mailbox (empty, then not) reach every stage at
// the same instant after the same number of events, and the runs
// execute the same events in total.
func TestCallbackFormsMatchProcs(t *testing.T) {
	pw := newWaitWorld()
	var procLog []stamp
	mark := func() { procLog = append(procLog, stamp{pw.e.Now(), pw.e.Executed()}) }
	pw.e.Spawn("subject", func(p *Proc) {
		pw.r.Acquire(p)
		mark()
		p.Sleep(3)
		mark()
		pw.r.Release()
		pw.r.Acquire(p)
		mark()
		pw.r.Release()
		pw.s.Wait(p)
		mark()
		pw.c.Wait(p)
		mark()
		pw.c.Wait(p)
		mark()
		pw.ch.Recv(p)
		mark()
		pw.ch.Recv(p)
		mark()
	})
	pw.e.Run()

	sw := newWaitWorld()
	s := &stepSubject{w: sw}
	s.Init(sw.e, s)
	s.recvF = s.recv
	sw.e.At(sw.e.Now(), s.Then((*stepSubject).start))
	sw.e.Run()

	if len(procLog) != 8 || !reflect.DeepEqual(procLog, s.log) {
		t.Fatalf("stage stamps differ:\nproc %v\nstep %v", procLog, s.log)
	}
	if pw.e.Executed() != sw.e.Executed() {
		t.Fatalf("executed %d events with a process, %d with callbacks", pw.e.Executed(), sw.e.Executed())
	}
}
