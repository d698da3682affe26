package kmachine

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// haltAll is a program that ends immediately.
func haltAll(m Env) error { return nil }

func TestSilentProtocolZeroRounds(t *testing.T) {
	met, err := Run(Config{K: 4, Seed: 1}, haltAll)
	if err != nil {
		t.Fatal(err)
	}
	if met.Rounds != 0 || met.Messages != 0 || met.Bytes != 0 {
		t.Errorf("silent protocol: %+v", met)
	}
}

func TestRequestResponseIsTwoRounds(t *testing.T) {
	// Machine 0 queries machine 1 and waits for the reply; the model says
	// this costs exactly 2 rounds.
	progs := []Program{
		func(m Env) error {
			m.Send(1, []byte("ping"))
			m.EndRound()
			msgs := m.Gather(1)
			if string(msgs[0].Payload) != "pong" {
				return fmt.Errorf("got %q", msgs[0].Payload)
			}
			return nil
		},
		func(m Env) error {
			msgs := m.Gather(1)
			if string(msgs[0].Payload) != "ping" {
				return fmt.Errorf("got %q", msgs[0].Payload)
			}
			m.Send(0, []byte("pong"))
			return nil
		},
	}
	met, err := RunPrograms(Config{K: 2, Seed: 1}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if met.Rounds != 2 {
		t.Errorf("request-response took %d rounds, want 2", met.Rounds)
	}
	if met.Messages != 2 {
		t.Errorf("messages = %d, want 2", met.Messages)
	}
	if met.Dangling != 0 {
		t.Errorf("dangling = %d", met.Dangling)
	}
}

func TestBroadcastReachesEveryone(t *testing.T) {
	k := 8
	var mu sync.Mutex
	received := make([]int, k)
	prog := func(m Env) error {
		if m.ID() == 0 {
			m.Broadcast([]byte{42})
			return nil
		}
		msgs := m.Gather(1)
		mu.Lock()
		received[m.ID()] = len(msgs)
		mu.Unlock()
		if msgs[0].Payload[0] != 42 || msgs[0].From != 0 {
			return fmt.Errorf("bad broadcast %+v", msgs[0])
		}
		return nil
	}
	met, err := Run(Config{K: k, Seed: 2}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if met.Messages != int64(k-1) {
		t.Errorf("broadcast sent %d messages, want %d", met.Messages, k-1)
	}
	for i := 1; i < k; i++ {
		if received[i] != 1 {
			t.Errorf("machine %d received %d messages", i, received[i])
		}
	}
}

func TestBandwidthStretchesLargeMessage(t *testing.T) {
	// B = 16 bytes/round. A 56-byte payload + 8 overhead = 64 bytes
	// needs 4 rounds of link time: sent in round 0, delivered in round 4.
	payload := bytes.Repeat([]byte{1}, 56)
	var deliveredRound int
	progs := []Program{
		func(m Env) error {
			m.Send(1, payload)
			return nil
		},
		func(m Env) error {
			m.Gather(1)
			deliveredRound = m.Round()
			return nil
		},
	}
	met, err := RunPrograms(Config{K: 2, Seed: 3, BandwidthBytes: 16}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if deliveredRound != 4 {
		t.Errorf("64-byte message over B=16 delivered in round %d, want 4", deliveredRound)
	}
	if met.Bytes != 64 {
		t.Errorf("bytes = %d, want 64", met.Bytes)
	}
}

func TestBandwidthSharesRoundCapacity(t *testing.T) {
	// Two 8-byte payloads (16 bytes each with overhead) on one link fit a
	// 32-byte round together: both delivered in round 1.
	var got []int
	progs := []Program{
		func(m Env) error {
			m.Send(1, make([]byte, 8))
			m.Send(1, make([]byte, 8))
			return nil
		},
		func(m Env) error {
			msgs := m.Gather(2)
			got = append(got, m.Round(), len(msgs))
			return nil
		},
	}
	_, err := RunPrograms(Config{K: 2, Seed: 4, BandwidthBytes: 32}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("both messages should arrive in round 1: round=%d n=%d", got[0], got[1])
	}
}

func TestBandwidthQueueingIsLinear(t *testing.T) {
	// m messages of one key each over a single link must take Θ(m) rounds
	// at B = one message per round — the fact that makes the simple method
	// Θ(ℓ). Message = 16B payload + 8B overhead = 24 bytes.
	const m = 100
	progs := []Program{
		func(mc Env) error {
			for i := 0; i < m; i++ {
				mc.Send(1, make([]byte, 16))
			}
			return nil
		},
		func(mc Env) error {
			mc.Gather(m)
			return nil
		},
	}
	met, err := RunPrograms(Config{K: 2, Seed: 5, BandwidthBytes: 24}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if met.Rounds != m {
		t.Errorf("%d queued messages at 1/round took %d rounds, want %d", m, met.Rounds, m)
	}
}

func TestPerLinkFIFO(t *testing.T) {
	var order []byte
	progs := []Program{
		func(m Env) error {
			for i := byte(0); i < 20; i++ {
				m.Send(1, []byte{i})
			}
			return nil
		},
		func(m Env) error {
			for _, msg := range m.Gather(20) {
				order = append(order, msg.Payload[0])
			}
			return nil
		},
	}
	if _, err := RunPrograms(Config{K: 2, Seed: 6, BandwidthBytes: 16}, progs); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != byte(i) {
			t.Fatalf("FIFO violated: position %d has %d", i, order[i])
		}
	}
}

func TestLinksAreIndependent(t *testing.T) {
	// Saturating link 0→1 must not delay link 0→2.
	var round2 int
	progs := []Program{
		func(m Env) error {
			m.Send(1, make([]byte, 1000)) // huge: many rounds on link 0→1
			m.Send(2, make([]byte, 4))    // tiny: next round on link 0→2
			return nil
		},
		func(m Env) error { m.Gather(1); return nil },
		func(m Env) error {
			m.Gather(1)
			round2 = m.Round()
			return nil
		},
	}
	if _, err := RunPrograms(Config{K: 3, Seed: 7, BandwidthBytes: 16}, progs); err != nil {
		t.Fatal(err)
	}
	if round2 != 1 {
		t.Errorf("independent link delayed: delivered round %d, want 1", round2)
	}
}

func TestUnlimitedBandwidth(t *testing.T) {
	var round int
	progs := []Program{
		func(m Env) error {
			m.Send(1, make([]byte, 1<<20))
			return nil
		},
		func(m Env) error {
			m.Gather(1)
			round = m.Round()
			return nil
		},
	}
	if _, err := RunPrograms(Config{K: 2, Seed: 8, BandwidthBytes: -1}, progs); err != nil {
		t.Fatal(err)
	}
	if round != 1 {
		t.Errorf("unlimited bandwidth delivered in round %d, want 1", round)
	}
}

func TestEnvReportsResolvedBandwidth(t *testing.T) {
	// A program plans its messages against the B its run enforces: 0 in
	// the config is the default link, negative is unlimited.
	for cfg, want := range map[int]int{0: DefaultBandwidth, 16: 16, -1: -1} {
		got := make([]int, 2)
		if _, err := Run(Config{K: 2, Seed: 9, BandwidthBytes: cfg}, func(m Env) error {
			got[m.ID()] = m.Bandwidth()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got[0] != want || got[1] != want {
			t.Errorf("BandwidthBytes %d: machines report %v, want %d", cfg, got, want)
		}
	}
}

func TestProgramErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	progs := []Program{
		func(m Env) error { return boom },
		func(m Env) error {
			m.Gather(1) // would block forever without cancellation
			return nil
		},
	}
	_, err := RunPrograms(Config{K: 2, Seed: 9}, progs)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestProgramPanicBecomesError(t *testing.T) {
	progs := []Program{
		func(m Env) error { panic("exploded") },
		func(m Env) error { m.Gather(1); return nil },
	}
	_, err := RunPrograms(Config{K: 2, Seed: 10}, progs)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("exploded")) {
		t.Errorf("panic not surfaced: %v", err)
	}
}

func TestSelfSendPanics(t *testing.T) {
	_, err := Run(Config{K: 2, Seed: 11}, func(m Env) error {
		m.Send(m.ID(), []byte{1})
		return nil
	})
	if err == nil {
		t.Errorf("self-send must be rejected")
	}
}

func TestOutOfRangeSendPanics(t *testing.T) {
	_, err := Run(Config{K: 2, Seed: 12}, func(m Env) error {
		m.Send(5, []byte{1})
		return nil
	})
	if err == nil {
		t.Errorf("out-of-range send must be rejected")
	}
}

func TestMaxRoundsDetectsLivelock(t *testing.T) {
	_, err := Run(Config{K: 2, Seed: 13, MaxRounds: 100}, func(m Env) error {
		for {
			m.EndRound()
		}
	})
	if !errors.Is(err, ErrMaxRounds) {
		t.Errorf("err = %v, want ErrMaxRounds", err)
	}
}

func TestDanglingMessageToHaltedMachine(t *testing.T) {
	progs := []Program{
		func(m Env) error {
			m.EndRound() // round 1: machine 1 already halted
			m.Send(1, []byte{1})
			return nil
		},
		func(m Env) error { return nil },
	}
	met, err := RunPrograms(Config{K: 2, Seed: 14}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if met.Dangling != 1 {
		t.Errorf("dangling = %d, want 1", met.Dangling)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (string, *Metrics) {
		var transcript string
		progs := []Program{
			func(m Env) error {
				for i := 0; i < 5; i++ {
					v := m.Rand().Uint64N(1000)
					m.Send(1, []byte(fmt.Sprintf("%d", v)))
					m.EndRound()
				}
				return nil
			},
			func(m Env) error {
				for i := 0; i < 5; i++ {
					for _, msg := range m.Gather(1) {
						transcript += string(msg.Payload) + ","
					}
				}
				return nil
			},
		}
		met, err := RunPrograms(Config{K: 2, Seed: 42}, progs)
		if err != nil {
			t.Fatal(err)
		}
		return transcript, met
	}
	t1, m1 := run()
	t2, m2 := run()
	if t1 != t2 {
		t.Errorf("transcripts differ:\n%s\n%s", t1, t2)
	}
	if m1.Rounds != m2.Rounds || m1.Messages != m2.Messages || m1.Bytes != m2.Bytes {
		t.Errorf("metrics differ: %+v vs %+v", m1, m2)
	}
}

func TestRandStreamsIndependent(t *testing.T) {
	k := 4
	draws := make([]uint64, k)
	_, err := Run(Config{K: k, Seed: 77}, func(m Env) error {
		draws[m.ID()] = m.Rand().Uint64()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if draws[i] == draws[j] {
				t.Errorf("machines %d and %d drew the same value", i, j)
			}
		}
	}
}

func TestPerMachineMetrics(t *testing.T) {
	progs := []Program{
		func(m Env) error {
			m.Send(1, make([]byte, 10))
			m.Send(1, make([]byte, 10))
			return nil
		},
		func(m Env) error { m.Gather(2); return nil },
	}
	met, err := RunPrograms(Config{K: 2, Seed: 15}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if met.SentMessages[0] != 2 || met.SentMessages[1] != 0 {
		t.Errorf("per-machine messages wrong: %v", met.SentMessages)
	}
	if met.SentBytes[0] != 2*(10+MessageOverheadBytes) {
		t.Errorf("per-machine bytes wrong: %v", met.SentBytes)
	}
}

func TestMeasureComputeAndModeledTime(t *testing.T) {
	met, err := Run(Config{K: 2, Seed: 16, MeasureCompute: true}, func(m Env) error {
		// Busy loop long enough to register on any clock.
		deadline := time.Now().Add(2 * time.Millisecond)
		for time.Now().Before(deadline) {
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.CriticalCompute < time.Millisecond {
		t.Errorf("CriticalCompute = %v, want >= 1ms", met.CriticalCompute)
	}
	if met.TotalCompute < met.CriticalCompute {
		t.Errorf("TotalCompute < CriticalCompute")
	}
	modeled := met.ModeledTime(CostModel{RoundLatency: time.Second})
	if modeled < met.CriticalCompute {
		t.Errorf("ModeledTime must include compute")
	}
}

func TestModeledTimeCountsRounds(t *testing.T) {
	m := &Metrics{Rounds: 10}
	got := m.ModeledTime(CostModel{RoundLatency: time.Millisecond})
	if got != 10*time.Millisecond {
		t.Errorf("ModeledTime = %v, want 10ms", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{K: 0}, haltAll); err == nil {
		t.Errorf("K=0 must fail")
	}
	if _, err := RunPrograms(Config{K: 2}, []Program{haltAll}); err == nil {
		t.Errorf("program count mismatch must fail")
	}
}

func TestConcurrentRunsAreIsolated(t *testing.T) {
	// Each worker sends a distinct number of messages; a run's metrics must
	// see exactly its own traffic even with many runs in flight.
	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := w + 1
			progs := []Program{
				func(m Env) error {
					for i := 0; i < n; i++ {
						m.Send(1, []byte{byte(i)})
					}
					return nil
				},
				func(m Env) error { m.Gather(n); return nil },
			}
			met, err := RunPrograms(Config{K: 2, Seed: uint64(w), BandwidthBytes: -1}, progs)
			if err != nil {
				errs[w] = err
				return
			}
			if met.Messages != int64(n) {
				errs[w] = fmt.Errorf("worker %d saw %d messages, want %d", w, met.Messages, n)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestManyMachinesParallelStress(t *testing.T) {
	// 64 machines, everyone talks to everyone once; checks the barrier
	// under real goroutine parallelism.
	k := 64
	prog := func(m Env) error {
		m.Broadcast([]byte{byte(m.ID())})
		m.EndRound()
		got := m.Gather(k - 1)
		seen := make(map[int]bool)
		for _, msg := range got {
			if int(msg.Payload[0]) != msg.From {
				return fmt.Errorf("corrupted payload")
			}
			seen[msg.From] = true
		}
		if len(seen) != k-1 {
			return fmt.Errorf("machine %d saw %d senders", m.ID(), len(seen))
		}
		return nil
	}
	met, err := Run(Config{K: k, Seed: 17, BandwidthBytes: -1}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if met.Messages != int64(k)*int64(k-1) {
		t.Errorf("messages = %d, want %d", met.Messages, k*(k-1))
	}
}

func TestRecvClearsInbox(t *testing.T) {
	progs := []Program{
		func(m Env) error {
			m.Send(1, []byte{1})
			return nil
		},
		func(m Env) error {
			m.EndRound()
			if got := m.Recv(); len(got) != 1 {
				return fmt.Errorf("first Recv got %d", len(got))
			}
			if got := m.Recv(); got != nil {
				return fmt.Errorf("second Recv must be nil")
			}
			return nil
		},
	}
	if _, err := RunPrograms(Config{K: 2, Seed: 18}, progs); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBarrierOverhead(b *testing.B) {
	// Measures simulator cost per (machine × round) with no traffic.
	for i := 0; i < b.N; i++ {
		_, err := Run(Config{K: 16, Seed: uint64(i)}, func(m Env) error {
			for r := 0; r < 100; r++ {
				m.EndRound()
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
