package sim

import (
	"fmt"
	"strings"
	"testing"
)

// recoverInProc runs body inside a process on engine e and returns the
// panic value the body raised (nil if none). The recover happens inside
// the process body, so the violation is caught where it is raised and
// the run continues; uncaught, it would come out of Run instead.
func recoverInProc(e *Engine, body func(p *Proc)) (got interface{}) {
	e.Spawn("violator", func(p *Proc) {
		defer func() { got = recover() }()
		body(p)
	})
	e.Run()
	return got
}

func wantAffinityPanic(t *testing.T, got interface{}, what string) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no panic for cross-engine use", what)
	}
	msg := fmt.Sprint(got)
	if !strings.Contains(msg, "affinity violation") || !strings.Contains(msg, what) {
		t.Fatalf("%s: panic = %q, want affinity diagnostic", what, msg)
	}
}

func TestAffinityChanRecvForeignProc(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	ch := NewChan[int](b)
	ch.Send(1) // non-empty: the guard must fire before the dequeue
	got := recoverInProc(a, func(p *Proc) { ch.Recv(p) })
	wantAffinityPanic(t, got, "Chan.Recv")
}

func TestAffinitySignalWaitForeignProc(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	s := NewSignal(b)
	got := recoverInProc(a, func(p *Proc) { s.Wait(p) })
	wantAffinityPanic(t, got, "Signal.Wait")

	got = recoverInProc(a, func(p *Proc) { s.WaitUntil(p, Time(0).Add(Microsecond)) })
	wantAffinityPanic(t, got, "Signal.WaitUntil")
}

func TestAffinityResourceAcquireForeignProc(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	r := NewResource(b, 1)
	got := recoverInProc(a, func(p *Proc) { r.Acquire(p) })
	wantAffinityPanic(t, got, "Resource.Acquire")
}

func TestAffinityCompletionWaitForeignProc(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	c := NewCompletion(b)
	got := recoverInProc(a, func(p *Proc) { c.Wait(p) })
	wantAffinityPanic(t, got, "Completion.Wait")
}

func TestAffinitySameEngineStillWorks(t *testing.T) {
	e := NewEngine()
	ch := NewChan[int](e)
	r := NewResource(e, 1)
	var got int
	e.Spawn("ok", func(p *Proc) {
		r.Acquire(p)
		got = ch.Recv(p)
		r.Release()
	})
	e.At(0, func() { ch.Send(42) })
	e.Run()
	if got != 42 {
		t.Fatalf("same-engine path broken: got %d", got)
	}
}

func TestUseAfterShutdownPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("idle", func(p *Proc) { NewSignal(e).Wait(p) }) // parks forever
	e.Run()
	e.Shutdown()

	for _, tc := range []struct {
		what string
		call func()
	}{
		{"At", func() { e.At(e.Now(), func() {}) }},
		{"Spawn", func() { e.Spawn("late", func(p *Proc) {}) }},
		{"Run", func() { e.Run() }},
		{"RunUntil", func() { e.RunUntil(e.Now().Add(Microsecond)) }},
	} {
		func() {
			defer func() {
				got := recover()
				if got == nil {
					t.Fatalf("%s after Shutdown: no panic", tc.what)
				}
				if msg := fmt.Sprint(got); !strings.Contains(msg, "after Shutdown") {
					t.Fatalf("%s after Shutdown: panic = %q", tc.what, msg)
				}
			}()
			tc.call()
		}()
	}
}

func TestEngineIDsAreUnique(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	if a.ID() == b.ID() || a.ID() == 0 || b.ID() == 0 {
		t.Fatalf("engine ids %d, %d", a.ID(), b.ID())
	}
}
