// Package jobs runs long-lived work — paper-scale ONEX queries that can
// outlive an HTTP request timeout — as cancelable, pollable background
// jobs: POST submits and returns immediately with a job id, GET polls state
// and progress, DELETE cancels.
//
// The Manager owns a bounded worker pool (the same bounded-pool idiom the
// hub uses for offline builds) and a bounded job table with TTL eviction:
// terminal jobs (done/failed/canceled) are retained for Config.TTL so
// clients can fetch results, then evicted; the table never exceeds
// Config.MaxJobs entries — when it is full of retained terminal jobs the
// oldest are evicted to make room, and when it is full of live jobs new
// submissions are rejected with ErrTableFull (callers surface 503).
//
// Cancellation and progress reuse the shape of the PR 2 build hooks
// (onex.Options.Progress / Options.Cancel): a job's run function receives a
// *Context whose Cancel channel closes when the job is canceled (or the
// manager shuts down) and whose Progress(done, total) feeds the polled
// completion fraction. Runners are expected to check Canceled() between
// units of work — for batch query jobs, between positional items — so a
// DELETE lands within one item's latency.
package jobs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Submission and lookup errors.
var (
	// ErrClosed reports a Submit against a closed manager.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrTableFull reports that the job table holds MaxJobs live jobs.
	ErrTableFull = errors.New("jobs: job table full of live jobs; retry later")
	// ErrCanceled is the terminal error of a canceled job.
	ErrCanceled = errors.New("jobs: job canceled")
)

// State is a job's lifecycle position.
type State int

const (
	// StateQueued: submitted, waiting for a worker.
	StateQueued State = iota
	// StateRunning: a worker is executing the run function.
	StateRunning
	// StateDone: finished successfully; the result is available until TTL
	// eviction.
	StateDone
	// StateFailed: the run function returned an error.
	StateFailed
	// StateCanceled: canceled before completing (or the manager closed).
	StateCanceled
)

// String returns the lower-case state name used on the REST surface.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Config tunes a Manager. The zero value is usable.
type Config struct {
	// Workers bounds concurrent job executions (default 2).
	Workers int
	// MaxJobs bounds the job table: live (queued+running) plus retained
	// terminal jobs (default 1024).
	MaxJobs int
	// TTL is how long terminal jobs stay pollable before eviction
	// (default 10 minutes; negative retains until the table needs room).
	TTL time.Duration
}

// Context is handed to a job's run function — the PR 2 hook shape.
type Context struct {
	// Cancel closes when the job is canceled or the manager shuts down;
	// identical contract to onex.Options.Cancel.
	Cancel <-chan struct{}
	job    *Job
}

// Progress records completed/total work units for polling clients. Calls
// are cheap (two atomic stores).
func (c *Context) Progress(done, total int) {
	c.job.progressDone.Store(int64(done))
	c.job.progressTotal.Store(int64(total))
}

// Canceled reports whether the job's Cancel channel has closed.
// JobID returns the running job's table id (observability labels: the API
// layer tags slow-query entries from async jobs with it).
func (c *Context) JobID() string { return c.job.id }

func (c *Context) Canceled() bool {
	select {
	case <-c.Cancel:
		return true
	default:
		return false
	}
}

// Job is one submitted work item. All fields are private; read through
// Snapshot.
type Job struct {
	id      string
	op      string
	dataset string
	created time.Time

	progressDone  atomic.Int64
	progressTotal atomic.Int64

	cancel     chan struct{}
	cancelOnce sync.Once

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	result   any
	err      error

	run func(*Context) (any, error)
}

// ID returns the job's table key.
func (j *Job) ID() string { return j.id }

// Snapshot is a point-in-time description of a job, shaped for JSON.
type Snapshot struct {
	ID      string `json:"id"`
	Op      string `json:"op"`
	Dataset string `json:"dataset,omitempty"`
	State   string `json:"state"`
	// Progress is the completion fraction in [0,1] (1 when terminal and
	// successful; whatever was last reported otherwise).
	Progress float64 `json:"progress"`
	// Done/Total are the raw progress counters (batch items for query
	// jobs).
	Done  int `json:"done"`
	Total int `json:"total"`

	CreatedAt  time.Time  `json:"createdAt"`
	StartedAt  *time.Time `json:"startedAt,omitempty"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`

	// Result is the run function's return value; only set when State is
	// "done".
	Result any `json:"result,omitempty"`
	// Err is the terminal error (failed/canceled), nil otherwise.
	Err error `json:"-"`
}

// Snapshot captures the job's current state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	st := j.state
	started, finished := j.started, j.finished
	result, err := j.result, j.err
	j.mu.Unlock()

	s := Snapshot{
		ID:        j.id,
		Op:        j.op,
		Dataset:   j.dataset,
		State:     st.String(),
		Done:      int(j.progressDone.Load()),
		Total:     int(j.progressTotal.Load()),
		CreatedAt: j.created,
	}
	if s.Total > 0 {
		s.Progress = float64(s.Done) / float64(s.Total)
	}
	if st == StateDone {
		s.Progress = 1
		s.Result = result
	}
	if st == StateFailed || st == StateCanceled {
		s.Err = err
	}
	if !started.IsZero() {
		s.StartedAt = &started
	}
	if !finished.IsZero() {
		s.FinishedAt = &finished
	}
	return s
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Stats aggregates a manager's lifetime counters.
type Stats struct {
	// Submitted counts accepted Submit calls; Rejected counts ErrTableFull
	// refusals.
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	// Done/Failed/Canceled count terminal transitions; Evicted counts
	// TTL/room evictions of terminal jobs.
	Done     uint64 `json:"done"`
	Failed   uint64 `json:"failed"`
	Canceled uint64 `json:"canceled"`
	Evicted  uint64 `json:"evicted"`
	// ByState counts the jobs currently in the table.
	ByState map[string]int `json:"byState"`
}

// Manager owns the job table and worker pool. All methods are safe for
// concurrent use.
type Manager struct {
	cfg Config

	mu    sync.Mutex
	table map[string]*Job
	seq   uint64

	queue     chan *Job
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	submitted, rejected                   atomic.Uint64
	doneCount, failedCount, canceledCount atomic.Uint64
	evicted                               atomic.Uint64

	// now is a test hook for TTL eviction.
	now func() time.Time
}

// NewManager starts a manager with cfg's worker pool running.
func NewManager(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.TTL == 0 {
		cfg.TTL = 10 * time.Minute
	}
	m := &Manager{
		cfg:    cfg,
		table:  make(map[string]*Job),
		queue:  make(chan *Job, cfg.MaxJobs),
		closed: make(chan struct{}),
		now:    time.Now,
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.closed:
			return
		case j := <-m.queue:
			m.execute(j)
		}
	}
}

// execute runs one job to a terminal state on a worker goroutine. A job
// still queued when the manager closes never starts: Close marks the
// manager closed before it cancels anything, so a worker freed by a
// cancellation cannot run a queued job to done before Close reaches it.
func (m *Manager) execute(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		j.mu.Unlock()
		return
	}
	if m.isClosed() {
		j.mu.Unlock()
		m.cancelJob(j)
		return
	}
	j.state = StateRunning
	j.started = m.now()
	run := j.run
	j.run = nil // release the closure (and anything it captures) when done
	j.mu.Unlock()

	ctx := &Context{Cancel: j.cancel, job: j}
	result, err := run(ctx)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateCanceled {
		// Cancel (or Close) landed while running: the cancel request wins
		// whatever the run function managed to return, so DELETE has
		// deterministic semantics. finished was already stamped by cancel.
		return
	}
	j.finished = m.now()
	switch {
	case err != nil && errors.Is(err, ErrCanceled):
		j.state = StateCanceled
		j.err = ErrCanceled
		m.canceledCount.Add(1)
	case err != nil:
		j.state = StateFailed
		j.err = err
		m.failedCount.Add(1)
	default:
		j.state = StateDone
		j.result = result
		m.doneCount.Add(1)
	}
}

// Submit queues run as a new job. op and dataset are labels carried into
// snapshots (the REST layer uses the query family and dataset name).
func (m *Manager) Submit(op, dataset string, run func(*Context) (any, error)) (*Job, error) {
	if m.isClosed() {
		return nil, ErrClosed
	}
	m.mu.Lock()
	m.expireLocked(true)
	if len(m.table) >= m.cfg.MaxJobs {
		m.mu.Unlock()
		m.rejected.Add(1)
		return nil, ErrTableFull
	}
	m.seq++
	j := &Job{
		// splitmix-style id: unique per manager, not guessable from the
		// previous one, stable length.
		id:      fmt.Sprintf("j-%016x", mix(m.seq)^uint64(m.now().UnixNano())),
		op:      op,
		dataset: dataset,
		created: m.now(),
		cancel:  make(chan struct{}),
		state:   StateQueued,
		run:     run,
	}
	m.table[j.id] = j
	m.mu.Unlock()
	m.submitted.Add(1)

	select {
	case m.queue <- j:
		if m.isClosed() {
			m.cancelJob(j) // close raced the enqueue; ensure terminal state
		}
	case <-m.closed:
		m.cancelJob(j)
	}
	return j, nil
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Get returns the job by id. TTL-evicted (and never-submitted) ids report
// false — poll-after-eviction is indistinguishable from not-found by
// design; clients must fetch results within the TTL.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	m.expireLocked(false)
	j, ok := m.table[id]
	m.mu.Unlock()
	return j, ok
}

// Cancel requests cancellation: a queued job goes terminal immediately, a
// running job's Context.Cancel closes (the runner notices between work
// units) and the job is marked canceled, a terminal job is left untouched.
// The second return is false when id is unknown (or already evicted).
func (m *Manager) Cancel(id string) (*Job, bool) {
	j, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	m.cancelJob(j)
	return j, true
}

// cancelJob transitions j to canceled unless it is already terminal.
func (m *Manager) cancelJob(j *Job) {
	j.cancelOnce.Do(func() { close(j.cancel) })
	j.mu.Lock()
	if !j.state.Terminal() {
		j.state = StateCanceled
		j.err = ErrCanceled
		j.finished = m.now()
		j.run = nil
		m.canceledCount.Add(1)
	}
	j.mu.Unlock()
}

// List returns every job in the table, newest first.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	m.expireLocked(false)
	out := make([]*Job, 0, len(m.table))
	for _, j := range m.table {
		out = append(out, j)
	}
	m.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if !out[a].created.Equal(out[b].created) {
			return out[a].created.After(out[b].created)
		}
		return out[a].id < out[b].id
	})
	return out
}

// expireLocked drops terminal jobs past their TTL. When makeRoom is also
// set (Submit only), it additionally evicts the oldest-finished terminal
// jobs until the table has room, so live work is only ever refused when
// MaxJobs jobs are actually queued or running. Get/List/Stats must NOT pass
// makeRoom: polling a full-but-retained table would otherwise evict results
// clients are about to fetch. Callers hold m.mu.
func (m *Manager) expireLocked(makeRoom bool) {
	now := m.now()
	type victim struct {
		id       string
		finished time.Time
	}
	var terminal []victim
	for id, j := range m.table {
		j.mu.Lock()
		st, fin := j.state, j.finished
		j.mu.Unlock()
		if !st.Terminal() {
			continue
		}
		if m.cfg.TTL >= 0 && now.Sub(fin) > m.cfg.TTL {
			delete(m.table, id)
			m.evicted.Add(1)
			continue
		}
		terminal = append(terminal, victim{id, fin})
	}
	if !makeRoom || len(m.table) < m.cfg.MaxJobs {
		return
	}
	sort.Slice(terminal, func(a, b int) bool { return terminal[a].finished.Before(terminal[b].finished) })
	for _, v := range terminal {
		if len(m.table) < m.cfg.MaxJobs {
			break
		}
		delete(m.table, v.id)
		m.evicted.Add(1)
	}
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	st := Stats{
		Submitted: m.submitted.Load(),
		Rejected:  m.rejected.Load(),
		Done:      m.doneCount.Load(),
		Failed:    m.failedCount.Load(),
		Canceled:  m.canceledCount.Load(),
		Evicted:   m.evicted.Load(),
		ByState:   make(map[string]int),
	}
	m.mu.Lock()
	for _, j := range m.table {
		j.mu.Lock()
		st.ByState[j.state.String()]++
		j.mu.Unlock()
	}
	m.mu.Unlock()
	return st
}

// Close cancels every live job (running jobs observe their Cancel channel),
// stops the workers and rejects further submissions. It returns once the
// workers have exited; results of already-finished jobs remain pollable by
// callers holding *Job pointers, but the manager should be considered gone.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		// Closed first: from here on no queued job starts (see execute),
		// whichever job the loop below cancels first.
		close(m.closed)
		m.mu.Lock()
		live := make([]*Job, 0, len(m.table))
		for _, j := range m.table {
			live = append(live, j)
		}
		m.mu.Unlock()
		for _, j := range live {
			m.cancelJob(j)
		}
		m.wg.Wait()
		// Drain whatever the workers never picked up (all already canceled
		// above, or canceled here if Submit raced Close).
	drain:
		for {
			select {
			case j := <-m.queue:
				m.cancelJob(j)
			default:
				break drain
			}
		}
	})
}

func (m *Manager) isClosed() bool {
	select {
	case <-m.closed:
		return true
	default:
		return false
	}
}
