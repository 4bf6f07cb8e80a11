package sweepq

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"offchip/internal/experiments"
	"offchip/internal/obs"
	"offchip/internal/prof"
	"offchip/internal/runner"
	"offchip/internal/tracecache"
)

// Config tunes a sweep server.
type Config struct {
	// StateDir holds the journal, the result blobs, and the shared trace
	// cache. Required: resume is the point of the service.
	StateDir string
	// Addr is the HTTP listen address ("127.0.0.1:0" for tests).
	Addr string
	// Workers is the worker-process count (0 or negative: 1).
	Workers int
	// JobTimeout bounds one job attempt on a worker (0: unbounded).
	JobTimeout time.Duration
	// MaxRetries is how many times a transport failure (worker crash,
	// timeout) requeues a job before it is marked failed. Deterministic
	// job errors never retry — the same ID would fail the same way.
	MaxRetries int
	// RetryBackoff delays each requeue (scaled by the attempt number).
	RetryBackoff time.Duration
	// WorkerCommand overrides how worker processes are spawned (nil:
	// re-exec the current binary with WorkerEnv set).
	WorkerCommand func() *exec.Cmd
	// Stderr receives worker stderr (nil: inherit).
	Stderr io.Writer

	// testJobDelay stretches each dispatch so the crash test can reliably
	// kill the fleet with a sweep half done. Test-only.
	testJobDelay time.Duration
}

// taskState is a job's position in the queue lifecycle.
type taskState string

const (
	taskQueued  taskState = "queued"
	taskRunning taskState = "running"
	taskDone    taskState = "done"
	taskFailed  taskState = "failed"
)

// task is one submitted job's full server-side record.
type task struct {
	id       string
	shortID  string
	priority int
	seq      int64 // submission order; ties break FIFO
	state    taskState
	attempt  int // current attempt tag (increments on requeue)
	retries  int
	errMsg   string
	result   *JobResult // set when done (or failed deterministically)
	journal  bool       // satisfied from the checkpoint journal
}

// taskHeap orders queued tasks by (priority desc, seq asc).
type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*task)) }
func (h *taskHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Stats is the server's cumulative counter block (the /state payload).
type Stats struct {
	Submitted        int64 `json:"submitted"`         // IDs received by Submit
	Accepted         int64 `json:"accepted"`          // newly enqueued
	Coalesced        int64 `json:"coalesced"`         // already queued/running
	CacheHits        int64 `json:"cache_hits"`        // already done in this process
	JournalHits      int64 `json:"journal_hits"`      // satisfied from the on-disk journal
	DuplicateResults int64 `json:"duplicate_results"` // completions for already-done tasks
	Retries          int64 `json:"retries"`           // transport-failure requeues
	Queued           int   `json:"queued"`
	Running          int   `json:"running"`
	Done             int   `json:"done"`
	Failed           int   `json:"failed"`

	Fleet FleetStats `json:"fleet"`
}

// Server is the sweep service: a priority queue of canonical job IDs, a
// worker-process fleet executing them, a checkpoint journal making every
// completion durable, and the live HTTP plane.
type Server struct {
	cfg     Config
	fleet   *Fleet
	journal *Journal
	store   *tracecache.Store
	http    *prof.Server

	mu      sync.Mutex
	cond    *sync.Cond
	tasks   map[string]*task
	queue   taskHeap
	merged  *obs.Registry
	nextSeq int64
	stats   Stats
	closed  bool

	wg sync.WaitGroup
}

// NewServer opens the state directory (recovering the journal), spawns the
// worker fleet, binds the HTTP plane, and starts the dispatchers.
func NewServer(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("sweepq: Config.StateDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	store, err := tracecache.NewStore(filepath.Join(cfg.StateDir, "results"))
	if err != nil {
		return nil, err
	}
	journal, err := OpenJournal(filepath.Join(cfg.StateDir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	fleet, err := NewFleet(FleetConfig{
		Workers:    cfg.Workers,
		CacheDir:   filepath.Join(cfg.StateDir, "traces"),
		JobTimeout: cfg.JobTimeout,
		Command:    cfg.WorkerCommand,
		Stderr:     cfg.Stderr,
	})
	if err != nil {
		journal.Close()
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		fleet:   fleet,
		journal: journal,
		store:   store,
		tasks:   map[string]*task{},
		merged:  obs.NewRegistry(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.http, err = prof.NewServer(prof.ServerConfig{
		Addr: cfg.Addr,
		Registries: func() map[string]*obs.Registry {
			return map[string]*obs.Registry{"sweep": s.merged}
		},
		Progress: s.progress,
		Extra: map[string]http.HandlerFunc{
			"/submit": s.handleSubmit,
			"/jobs/":  s.handleJob,
			"/state":  s.handleState,
		},
	})
	if err != nil {
		fleet.Close()
		journal.Close()
		return nil, err
	}
	s.http.Start()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.dispatch()
	}
	return s, nil
}

// Addr returns the HTTP plane's bound address.
func (s *Server) Addr() string { return s.http.Addr() }

// SubmitResult reports how a batch of submitted IDs was disposed.
type SubmitResult struct {
	Accepted  int      `json:"accepted"`
	Cached    int      `json:"cached"`
	Coalesced int      `json:"coalesced"`
	IDs       []string `json:"ids"` // canonical IDs, submission order
}

// Submit enqueues jobs by ID. Every ID is canonicalized first, so two
// spellings of the same job coalesce; IDs already completed — in this
// process or in the journal of a previous one — are served from cache
// without touching the fleet.
func (s *Server) Submit(ids []string, priority int) (*SubmitResult, error) {
	specs := make([]runner.JobSpec, len(ids))
	for i, id := range ids {
		spec, err := runner.ParseJobID(id)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("sweepq: server is shut down")
	}
	res := &SubmitResult{}
	for _, spec := range specs {
		id := spec.ID()
		res.IDs = append(res.IDs, id)
		s.stats.Submitted++
		if t, ok := s.tasks[id]; ok {
			switch t.state {
			case taskDone, taskFailed:
				s.stats.CacheHits++
				res.Cached++
			default:
				s.stats.Coalesced++
				res.Coalesced++
			}
			continue
		}
		t := &task{
			id: id, shortID: spec.ShortID(),
			priority: priority, seq: s.nextSeq,
		}
		s.nextSeq++
		s.tasks[id] = t
		if jr := s.recoverLocked(t); jr != nil {
			// Journal hit: the job completed in a previous process life.
			t.state = taskDone
			t.result = jr
			t.journal = true
			s.stats.JournalHits++
			res.Cached++
			jr.MergeInto(s.merged)
			continue
		}
		t.state = taskQueued
		heap.Push(&s.queue, t)
		s.stats.Accepted++
		res.Accepted++
		s.cond.Signal()
	}
	return res, nil
}

// recoverLocked tries to satisfy a task from the checkpoint journal: the
// blob must exist and match its recorded digest, and its ID must match the
// task (a digest collision or an edited store would otherwise smuggle in a
// wrong result). Any mismatch falls back to re-running the job.
func (s *Server) recoverLocked(t *task) *JobResult {
	e, ok := s.journal.Entries[t.id]
	if !ok {
		return nil
	}
	blob := s.store.Load(e.Blob)
	if blob == nil || BlobDigest(blob) != e.Digest {
		return nil
	}
	var jr JobResult
	if err := json.Unmarshal(blob, &jr); err != nil || jr.ID != t.id || jr.Err != "" {
		return nil
	}
	return &jr
}

// dispatch is one dispatcher goroutine: pop the highest-priority queued
// task, run it on the fleet, and file the completion.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		t := heap.Pop(&s.queue).(*task)
		t.state = taskRunning
		attempt := t.attempt
		s.mu.Unlock()

		if s.cfg.testJobDelay > 0 {
			time.Sleep(s.cfg.testJobDelay)
		}
		jr, err := s.fleet.Do(t.id, attempt)
		s.finish(t, attempt, jr, err)
	}
}

// finish files one attempt's outcome. Idempotent: a completion for a task
// that is already done (a duplicate delivery, or a late result racing a
// retry) is counted and dropped — first result wins.
func (s *Server) finish(t *task, attempt int, jr *JobResult, transportErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.state == taskDone || t.state == taskFailed || t.attempt != attempt {
		s.stats.DuplicateResults++
		return
	}
	if transportErr != nil {
		if s.closed {
			return
		}
		t.retries++
		s.stats.Retries++
		if t.retries > s.cfg.MaxRetries {
			t.state = taskFailed
			t.errMsg = transportErr.Error()
			return
		}
		// Requeue after a backoff that grows with the attempt number; the
		// timer (not the dispatcher) re-pushes so no worker slot blocks.
		t.attempt++
		backoff := s.cfg.RetryBackoff * time.Duration(t.retries)
		time.AfterFunc(backoff, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.closed || t.state != taskRunning {
				return
			}
			t.state = taskQueued
			heap.Push(&s.queue, t)
			s.cond.Signal()
		})
		return
	}
	if jr.Err != "" {
		// Deterministic job failure: retrying the same canonical ID would
		// fail identically, so fail fast and keep the error addressable.
		t.state = taskFailed
		t.errMsg = jr.Err
		t.result = jr
		return
	}
	blob, err := json.Marshal(jr)
	if err == nil {
		err = s.store.Save(blobName(t.shortID), blob)
	}
	if err == nil {
		err = s.journal.Append(JournalEntry{ID: t.id, Blob: blobName(t.shortID), Digest: BlobDigest(blob)})
	}
	if err != nil {
		// An unjournalable completion is still a completion — serve it from
		// memory; the next process life will re-run the job.
		t.errMsg = fmt.Sprintf("checkpoint failed: %v", err)
	}
	t.state = taskDone
	t.result = jr
	jr.MergeInto(s.merged)
}

func blobName(shortID string) string { return shortID + ".json" }

// progress snapshots the job counts for /progress.
func (s *Server) progress() prof.Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := prof.Progress{TotalJobs: len(s.tasks)}
	for _, t := range s.tasks {
		switch t.state {
		case taskDone:
			p.DoneJobs++
		case taskFailed:
			p.Failed++
		case taskRunning:
			p.InFlight++
		}
	}
	return p
}

// Stats snapshots the counters (queue gauges recomputed on the fly).
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Server) statsLocked() Stats {
	st := s.stats
	for _, t := range s.tasks {
		switch t.state {
		case taskQueued:
			st.Queued++
		case taskRunning:
			st.Running++
		case taskDone:
			st.Done++
		case taskFailed:
			st.Failed++
		}
	}
	st.Fleet = s.fleet.Stats()
	return st
}

// Merged returns the live merged registry. Safe for concurrent use — the
// registry locks internally — but for a byte-stable snapshot wait until
// every submitted job is done.
func (s *Server) Merged() *obs.Registry { return s.merged }

// Result returns a completed job's result by canonical ID (nil if the job
// is unknown or not done yet).
func (s *Server) Result(id string) *JobResult {
	spec, err := runner.ParseJobID(id)
	if err != nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tasks[spec.ID()]; t != nil && t.state == taskDone {
		return t.result
	}
	return nil
}

// Wait blocks until every submitted job has completed or failed, polling at
// the given interval (0: 10ms). It returns the failed-job count.
func (s *Server) Wait(poll time.Duration) int {
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	for {
		s.mu.Lock()
		pending, failed := 0, 0
		for _, t := range s.tasks {
			switch t.state {
			case taskDone:
			case taskFailed:
				failed++
			default:
				pending++
			}
		}
		closed := s.closed
		s.mu.Unlock()
		if pending == 0 || closed {
			return failed
		}
		time.Sleep(poll)
	}
}

// Kill simulates a crash: SIGKILL the whole worker fleet and tear the
// server down without draining. Queued and running jobs are simply lost —
// exactly what the journal exists to absorb.
func (s *Server) Kill() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.fleet.Kill()
	s.http.Close()
	s.wg.Wait()
	s.journal.Close()
}

// Close shuts down in an orderly way: dispatchers stop picking up work,
// workers drain via stdin EOF, the plane and journal close.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.fleet.Close()
	s.http.Close()
	s.journal.Close()
}

// --- HTTP handlers ------------------------------------------------------

// SubmitRequest is the POST /submit payload: explicit job IDs, a sweep
// request expanded server-side, or both.
type SubmitRequest struct {
	Jobs     []string             `json:"jobs,omitempty"`
	Request  *experiments.Request `json:"request,omitempty"`
	Priority int                  `json:"priority,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req SubmitRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<24))
	// A field this server does not know (a retired option such as
	// "sample", or a typo) would otherwise be dropped silently and the
	// sweep run as if it had not been asked for.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ids := append([]string(nil), req.Jobs...)
	if req.Request != nil {
		specs, err := req.Request.Expand()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, spec := range specs {
			ids = append(ids, spec.ID())
		}
	}
	if len(ids) == 0 {
		http.Error(w, "no jobs", http.StatusBadRequest)
		return
	}
	res, err := s.Submit(ids, req.Priority)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, res)
}

// JobStatus is the GET /jobs/<id> payload.
type JobStatus struct {
	ID        string          `json:"id"`
	ShortID   string          `json:"short_id"`
	State     string          `json:"state"`
	Attempt   int             `json:"attempt"`
	Retries   int             `json:"retries"`
	Journal   bool            `json:"journal,omitempty"`
	Err       string          `json:"err,omitempty"`
	Canonical json.RawMessage `json:"canonical,omitempty"`
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	spec, err := runner.ParseJobID(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	t := s.tasks[spec.ID()]
	var js *JobStatus
	if t != nil {
		js = &JobStatus{
			ID: t.id, ShortID: t.shortID, State: string(t.state),
			Attempt: t.attempt, Retries: t.retries, Journal: t.journal, Err: t.errMsg,
		}
		if t.result != nil {
			js.Canonical = t.result.Canonical
		}
	}
	s.mu.Unlock()
	if js == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, js)
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// JobIDs returns every known task's canonical ID, sorted — the admin view.
func (s *Server) JobIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]string, 0, len(s.tasks))
	for id := range s.tasks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
