package kmachine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// echoProg has every machine broadcast its ID and collect everyone else's.
func echoProg(m Env) error {
	m.Broadcast([]byte{byte(m.ID())})
	m.EndRound()
	got := m.Gather(m.K() - 1)
	if len(got) != m.K()-1 {
		return fmt.Errorf("machine %d got %d messages", m.ID(), len(got))
	}
	return nil
}

func TestRuntimeMatchesOneShotRun(t *testing.T) {
	cfg := Config{K: 6, Seed: 99}
	want, err := Run(cfg, echoProg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	got, err := rt.ExecuteSeeded(cfg.Seed, echoProg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || got.Messages != want.Messages || got.Bytes != want.Bytes {
		t.Errorf("runtime run %+v differs from one-shot %+v", got, want)
	}
}

func TestRuntimeSeedDeterminism(t *testing.T) {
	// The machines' private randomness must be driven by the per-run seed,
	// not by residual goroutine state: the same seed replays bit-for-bit
	// on a reused world, and distinct seeds diverge.
	rt, err := NewRuntime(Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	draw := func(seed uint64) uint64 {
		var got uint64
		progs := []Program{
			func(m Env) error {
				v := m.Rand().Uint64()
				m.Send(1, []byte{byte(v)})
				got = v
				return nil
			},
			func(m Env) error { m.WaitAny(); return nil },
		}
		if _, err := rt.ExecutePrograms(seed, progs); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b, c := draw(7), draw(7), draw(8)
	if a != b {
		t.Errorf("same seed drew %d then %d on the reused world", a, b)
	}
	if a == c {
		t.Errorf("distinct seeds drew the same value %d", a)
	}
}

func TestRuntimeMetricsResetBetweenRuns(t *testing.T) {
	rt, err := NewRuntime(Config{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	first, err := rt.ExecuteSeeded(1, echoProg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := rt.ExecuteSeeded(2, echoProg)
	if err != nil {
		t.Fatal(err)
	}
	if second.Rounds != first.Rounds || second.Messages != first.Messages {
		t.Errorf("second run %+v accumulated state from first %+v", second, first)
	}
}

func TestRuntimeConcurrentRunsAreIsolated(t *testing.T) {
	// Each worker sends a distinct number of messages; a run's metrics must
	// see exactly its own traffic even with many runs in flight.
	rt, err := NewRuntime(Config{K: 2, Seed: 5, BandwidthBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
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
			met, err := rt.ExecutePrograms(uint64(w), progs)
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

func TestRuntimeRecoversAfterProgramError(t *testing.T) {
	rt, err := NewRuntime(Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	boom := errors.New("boom")
	if _, err := rt.ExecuteSeeded(1, func(m Env) error {
		if m.ID() == 1 {
			return boom
		}
		m.WaitAny() // would block forever without cancellation
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The same world must be healthy for the next run.
	if _, err := rt.ExecuteSeeded(1, echoProg); err != nil {
		t.Fatalf("run after error: %v", err)
	}
	if _, err := rt.ExecuteSeeded(1, func(m Env) error { panic("exploded") }); err == nil {
		t.Fatal("panic not surfaced")
	}
	if _, err := rt.ExecuteSeeded(1, echoProg); err != nil {
		t.Fatalf("run after panic: %v", err)
	}
}

func TestRuntimeClose(t *testing.T) {
	rt, err := NewRuntime(Config{K: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	rt.Close() // idempotent
	if _, err := rt.ExecuteSeeded(1, echoProg); !errors.Is(err, ErrClosed) {
		t.Errorf("Execute after Close: %v, want ErrClosed", err)
	}
}

func TestRuntimeCloseWithRunsInFlight(t *testing.T) {
	rt, err := NewRuntime(Config{K: 2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := rt.ExecutePrograms(1, []Program{
			func(m Env) error {
				close(started)
				<-release
				m.Send(1, []byte{1})
				return nil
			},
			func(m Env) error { m.WaitAny(); return nil },
		})
		done <- err
	}()
	<-started
	rt.Close() // must not disturb the in-flight run
	close(release)
	if err := <-done; err != nil {
		t.Errorf("in-flight run failed across Close: %v", err)
	}
}

func TestRuntimeIdlePoolIsBounded(t *testing.T) {
	rt, err := NewRuntime(Config{K: 2, Seed: 13, MaxIdleWorlds: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// Hold 5 runs in flight at once (5 live worlds), then let them all
	// finish; only MaxIdleWorlds may stay pooled.
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan error)
	for i := 0; i < 5; i++ {
		go func() {
			_, err := rt.ExecutePrograms(13, []Program{
				func(Env) error {
					started <- struct{}{}
					<-release
					return nil
				},
				func(Env) error { return nil },
			})
			done <- err
		}()
	}
	for i := 0; i < 5; i++ {
		<-started
	}
	close(release)
	for i := 0; i < 5; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	rt.mu.Lock()
	idle := len(rt.idle)
	rt.mu.Unlock()
	if idle > 2 {
		t.Errorf("idle pool holds %d worlds, cap is 2", idle)
	}
	// The runtime keeps working after the reap.
	if _, err := rt.ExecuteSeeded(1, echoProg); err != nil {
		t.Fatal(err)
	}
}

func TestNewRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(Config{K: 0}); err == nil {
		t.Error("K=0 must fail")
	}
}

func BenchmarkOneShotRunPerQuery(b *testing.B) {
	// The cost the persistent runtime removes: k goroutine spawns + teardown
	// per run.
	cfg := Config{K: 16, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, echoProg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRuntimeExecutePerQuery(b *testing.B) {
	rt, err := NewRuntime(Config{K: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.ExecuteSeeded(uint64(i), echoProg); err != nil {
			b.Fatal(err)
		}
	}
}
