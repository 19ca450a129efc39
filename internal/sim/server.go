package sim

// Server models a work-conserving FIFO serialization point with a fixed
// service rate — a PCIe link direction, a NIC datapath, a memory port.
// Transfers queue behind each other; a transfer of n bytes occupies the
// server for n/rate seconds.
//
// The model intentionally serializes whole transfers rather than
// interleaving packets: at the message sizes the paper sweeps this matches
// a store-and-forward pipe closely while staying O(1) per transfer.
type Server struct {
	e         *Engine
	rate      float64 // bytes per second
	busyUntil Time
	busyTotal Duration // accumulated busy time, for utilization reporting
}

// NewServer creates a server with the given service rate in bytes/second.
func NewServer(e *Engine, bytesPerSecond float64) *Server {
	if bytesPerSecond <= 0 {
		panic("sim: server rate must be positive")
	}
	return &Server{e: e, rate: bytesPerSecond}
}

// Rate returns the configured service rate in bytes/second.
func (s *Server) Rate() float64 { return s.rate }

// Reserve books n bytes of service starting no earlier than the current
// time and returns the completion time, without blocking. Use it for
// posted (fire-and-forget) traffic where the initiator does not wait.
func (s *Server) Reserve(n int) Time {
	start := s.e.now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	d := BytesAt(n, s.rate)
	s.busyUntil = start.Add(d)
	s.busyTotal += d
	return s.busyUntil
}

// ReserveDuration books d of service time and returns the completion time.
func (s *Server) ReserveDuration(d Duration) Time { return s.ReserveDurationAt(s.e.now, d) }

// ReserveDurationAt books d of service time starting no earlier than at
// and returns the completion time. A warp running ahead of the engine
// books its SM's issue port at its own clock (see gpusim's run-ahead).
func (s *Server) ReserveDurationAt(at Time, d Duration) Time {
	start := at
	if s.busyUntil > start {
		start = s.busyUntil
	}
	s.busyUntil = start.Add(d)
	s.busyTotal += d
	return s.busyUntil
}

// BusyTotal reports accumulated service time, for utilization metrics.
func (s *Server) BusyTotal() Duration { return s.busyTotal }
