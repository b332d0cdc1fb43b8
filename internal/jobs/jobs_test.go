package jobs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitState polls until j reaches a terminal state or the deadline passes.
func waitTerminal(t *testing.T, j *Job) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s := j.Snapshot(); State(0).Terminal() || j.State().Terminal() {
			_ = s
			if j.State().Terminal() {
				return j.Snapshot()
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state (now %s)", j.ID(), j.State())
	return Snapshot{}
}

func TestJobLifecycleDone(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()

	j, err := m.Submit("match", "demo", func(ctx *Context) (any, error) {
		ctx.Progress(1, 2)
		ctx.Progress(2, 2)
		return "answer", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := waitTerminal(t, j)
	if s.State != "done" || s.Result != "answer" || s.Progress != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.StartedAt == nil || s.FinishedAt == nil {
		t.Fatalf("missing timestamps: %+v", s)
	}
	got, ok := m.Get(j.ID())
	if !ok || got != j {
		t.Fatal("Get did not return the job")
	}
	st := m.Stats()
	if st.Submitted != 1 || st.Done != 1 || st.ByState["done"] != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJobFailure(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	boom := errors.New("boom")
	j, err := m.Submit("range", "demo", func(*Context) (any, error) { return nil, boom })
	if err != nil {
		t.Fatal(err)
	}
	s := waitTerminal(t, j)
	if s.State != "failed" || !errors.Is(s.Err, boom) {
		t.Fatalf("snapshot = %+v (err %v)", s, s.Err)
	}
	if s.Result != nil {
		t.Fatalf("failed job has result: %+v", s)
	}
}

func TestCancelWhileRunning(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()

	started := make(chan struct{})
	j, err := m.Submit("match", "demo", func(ctx *Context) (any, error) {
		close(started)
		<-ctx.Cancel // block until canceled, like a runner between items
		return nil, ErrCanceled
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := m.Cancel(j.ID()); !ok {
		t.Fatal("cancel: job not found")
	}
	s := waitTerminal(t, j)
	if s.State != "canceled" || !errors.Is(s.Err, ErrCanceled) {
		t.Fatalf("snapshot = %+v (err %v)", s, s.Err)
	}
	if m.Stats().Canceled != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

// A runner that ignores its Cancel channel and returns a result anyway must
// still end canceled — DELETE has deterministic semantics.
func TestCancelWinsOverLateResult(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	j, _ := m.Submit("match", "demo", func(*Context) (any, error) {
		close(started)
		<-release
		return "too late", nil
	})
	<-started
	m.Cancel(j.ID())
	close(release)
	s := waitTerminal(t, j)
	if s.State != "canceled" || s.Result != nil {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()

	gate := make(chan struct{})
	blocker, _ := m.Submit("match", "demo", func(*Context) (any, error) {
		<-gate
		return nil, nil
	})
	ran := false
	queued, _ := m.Submit("match", "demo", func(*Context) (any, error) {
		ran = true
		return nil, nil
	})
	m.Cancel(queued.ID())
	close(gate)
	waitTerminal(t, blocker)
	s := waitTerminal(t, queued)
	if s.State != "canceled" || ran {
		t.Fatalf("queued job state %s, ran=%v", s.State, ran)
	}
}

func TestCancelTerminalIsNoop(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	j, _ := m.Submit("match", "demo", func(*Context) (any, error) { return 7, nil })
	waitTerminal(t, j)
	if _, ok := m.Cancel(j.ID()); !ok {
		t.Fatal("cancel of done job not found")
	}
	if s := j.Snapshot(); s.State != "done" || s.Result != 7 {
		t.Fatalf("done job disturbed by cancel: %+v", s)
	}
}

func TestPollAfterTTLEviction(t *testing.T) {
	m := NewManager(Config{Workers: 1, TTL: time.Millisecond})
	defer m.Close()
	clock := struct {
		sync.Mutex
		t time.Time
	}{t: time.Unix(1000, 0)}
	m.now = func() time.Time {
		clock.Lock()
		defer clock.Unlock()
		return clock.t
	}

	j, _ := m.Submit("match", "demo", func(*Context) (any, error) { return 1, nil })
	waitTerminal(t, j)
	if _, ok := m.Get(j.ID()); !ok {
		t.Fatal("job evicted before TTL")
	}
	clock.Lock()
	clock.t = clock.t.Add(time.Hour)
	clock.Unlock()
	if _, ok := m.Get(j.ID()); ok {
		t.Fatal("job still pollable after TTL")
	}
	if m.Stats().Evicted != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
	// Unknown ids look the same as evicted ones.
	if _, ok := m.Get("j-nope"); ok {
		t.Fatal("unknown id found")
	}
}

func TestBoundedTableRejectsLiveOverflow(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxJobs: 2})
	defer m.Close()
	gate := make(chan struct{})
	defer close(gate)
	for i := 0; i < 2; i++ {
		if _, err := m.Submit("match", "demo", func(ctx *Context) (any, error) {
			select {
			case <-gate:
			case <-ctx.Cancel:
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Submit("match", "demo", func(*Context) (any, error) { return nil, nil }); !errors.Is(err, ErrTableFull) {
		t.Fatalf("overflow submit: %v", err)
	}
	if m.Stats().Rejected != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestBoundedTableEvictsOldestTerminalForRoom(t *testing.T) {
	m := NewManager(Config{Workers: 1, MaxJobs: 2, TTL: -1})
	defer m.Close()
	a, _ := m.Submit("match", "demo", func(*Context) (any, error) { return "a", nil })
	waitTerminal(t, a)
	b, _ := m.Submit("match", "demo", func(*Context) (any, error) { return "b", nil })
	waitTerminal(t, b)
	// Table is full of terminal jobs; a new submit evicts the oldest (a).
	c, err := m.Submit("match", "demo", func(*Context) (any, error) { return "c", nil })
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, c)
	if _, ok := m.Get(a.ID()); ok {
		t.Fatal("oldest terminal job not evicted for room")
	}
	if _, ok := m.Get(b.ID()); !ok {
		t.Fatal("newer terminal job evicted first")
	}
}

func TestCloseAbortsInFlight(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	started := make(chan struct{}, 2)
	js := make([]*Job, 0, 4)
	for i := 0; i < 2; i++ {
		j, _ := m.Submit("match", "demo", func(ctx *Context) (any, error) {
			started <- struct{}{}
			<-ctx.Cancel
			return nil, ErrCanceled
		})
		js = append(js, j)
	}
	<-started
	<-started
	// Two more still queued.
	for i := 0; i < 2; i++ {
		j, _ := m.Submit("match", "demo", func(*Context) (any, error) { return nil, nil })
		js = append(js, j)
	}
	m.Close()
	for i, j := range js {
		if st := j.State(); st != StateCanceled {
			t.Fatalf("job %d state after Close: %s", i, st)
		}
	}
	if _, err := m.Submit("match", "demo", func(*Context) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
}

// TestCloseNeverStartsQueuedJob replays, step by step, the one interleaving
// in which Close's cancel loop could let a queued job finish: one worker,
// the running job cancelled first, and the freed worker taking the queued
// job before Close reaches it. Once the manager is closed the job must not
// start.
func TestCloseNeverStartsQueuedJob(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	running := make(chan struct{})
	a, _ := m.Submit("match", "demo", func(ctx *Context) (any, error) {
		close(running)
		<-ctx.Cancel
		return "a", nil
	})
	<-running
	var startedB atomic.Bool
	b, _ := m.Submit("match", "demo", func(*Context) (any, error) {
		startedB.Store(true)
		return "b", nil
	})

	close(m.closed) // Close's first step
	m.cancelJob(a)  // the running job is cancelled first, freeing the worker
	m.execute(b)    // the freed worker takes the queued job
	m.wg.Wait()

	if startedB.Load() {
		t.Fatal("a queued job started after the manager closed")
	}
	for name, j := range map[string]*Job{"running": a, "queued": b} {
		if st := j.State(); st != StateCanceled {
			t.Errorf("%s job state after close: %s, want canceled", name, st)
		}
	}
}

// Hammer the table from many goroutines: submits, polls, cancels and Stats
// racing each other — run under -race.
func TestConcurrentChaos(t *testing.T) {
	m := NewManager(Config{Workers: 4, MaxJobs: 64, TTL: time.Minute})
	defer m.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				j, err := m.Submit("match", fmt.Sprintf("d%d", w), func(ctx *Context) (any, error) {
					for step := 0; step < 4; step++ {
						if ctx.Canceled() {
							return nil, ErrCanceled
						}
						ctx.Progress(step+1, 4)
					}
					return "ok", nil
				})
				if errors.Is(err, ErrTableFull) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				switch i % 3 {
				case 0:
					m.Cancel(j.ID())
				case 1:
					j.Snapshot()
				default:
					m.Stats()
					m.List()
				}
			}
		}(w)
	}
	wg.Wait()
	// Every job must settle.
	deadline := time.Now().Add(10 * time.Second)
	for _, j := range m.List() {
		for !j.State().Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", j.ID(), j.State())
			}
			time.Sleep(time.Millisecond)
		}
	}
	st := m.Stats()
	if st.Done+st.Failed+st.Canceled+uint64(st.ByState["queued"])+uint64(st.ByState["running"]) == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
}
