package sim

import (
	"fmt"
	"strings"
	"testing"
)

// buildWorkload runs a randomized-looking (but seeded) mix of processes,
// resources, servers, channels and signals, logging every observable
// step. Determinism requires bit-identical logs across runs.
func buildWorkload(seed uint64) string {
	var log strings.Builder
	e := NewEngine()
	res := NewResource(e, 2)
	srv := NewServer(e, 1e9)
	ch := NewChan[int](e)
	sig := NewSignal(e)

	rng := seed
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng >> 33
	}

	for i := 0; i < 20; i++ {
		i := i
		delay := Duration(next()%1000) * Nanosecond
		e.SpawnAt(Time(next()%5000), fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(delay)
			res.Acquire(p)
			p.SleepUntil(srv.Reserve(int(next()%4096) + 1))
			fmt.Fprintf(&log, "%d held at %v\n", i, p.Now())
			res.Release()
			ch.Send(i)
			if i%5 == 0 {
				sig.Broadcast()
			}
		})
	}
	e.Spawn("drain", func(p *Proc) {
		for i := 0; i < 20; i++ {
			v := ch.Recv(p)
			fmt.Fprintf(&log, "drained %d at %v\n", v, p.Now())
		}
	})
	e.Run()
	fmt.Fprintf(&log, "end %v\n", e.Now())
	return log.String()
}

func TestWorkloadDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		first := buildWorkload(seed)
		for run := 0; run < 3; run++ {
			if again := buildWorkload(seed); again != first {
				t.Fatalf("seed %d: nondeterministic run:\n--- first ---\n%s--- again ---\n%s",
					seed, first, again)
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	// Sanity: the workload actually depends on its seed (otherwise the
	// determinism test proves nothing).
	if buildWorkload(1) == buildWorkload(2) {
		t.Fatal("workload ignores its seed")
	}
}
