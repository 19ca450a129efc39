package sim

// Step is the continuation slot of a callback state machine: a hardware
// pipeline stage that advances by engine events instead of running as a
// process. The owner embeds it (or keeps it as a field) and names each
// next stage with a method expression such as (*op).landed, so one
// fire method value, built once by Init, serves every stage and
// advancing allocates nothing. A stage that a process would reach by
// sleeping is scheduled with At or After; one reached through a
// callback-form wait (Resource.AcquireFunc, Signal.WaitFunc,
// Completion.WaitFunc, Chan.WaitFunc) passes Then's callback.
type Step[T any] struct {
	e    *Engine
	self T
	next func(T)
	fire func()
}

// Init binds the slot to its engine and owner. Call it once, on the
// slot's final address.
func (s *Step[T]) Init(e *Engine, self T) {
	s.e, s.self = e, self
	s.fire = s.run
}

func (s *Step[T]) run() { s.next(s.self) }

// Then sets next as the stage to run and returns the callback that runs
// it.
func (s *Step[T]) Then(next func(T)) func() {
	s.next = next
	return s.fire
}

// At runs next at t.
func (s *Step[T]) At(t Time, next func(T)) { s.e.At(t, s.Then(next)) }

// After runs next d from now.
func (s *Step[T]) After(d Duration, next func(T)) { s.e.After(d, s.Then(next)) }
