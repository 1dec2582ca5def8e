// Package tre implements DawningCloud's thin runtime environments (paper
// Section 3.1.2): the workload-specific servers that schedule jobs and
// negotiate resources with the CSF's provision service.
//
// The HTC TRE bundles the HTC server and scheduler: it scans its queue
// every minute, dispatches with First-Fit, and applies the DR1/DR2 dynamic
// resource policy. The MTC TRE adds the trigger monitor: workflow tasks
// enter the scheduling queue only when their dependencies complete, the
// queue is scanned every three seconds and dispatched FCFS, and the TRE can
// destroy itself once its workload's tasks finish (the service provider
// ends the computing service; see MTCServer.DestroyAfter). Web portals are
// the emulation's job source and are not modelled.
//
// Every node grant is a lease handle (metrics.Lease). Start takes the
// initial lease; each dynamic grant is a RequestLease handle whose own
// hourly idle check closes it once that many nodes sit idle (paper
// Section 3.2.2), so a bill pairs each grant's start with its own end.
// Destroy closes the initial lease and every grant still held.
//
// The trigger monitor is a workflow.Tracker, as in DRP and ssp-spot.
// systems.Workload.Validate checks every workflow with one (unique task
// IDs, dependencies inside the workflow, no cycle) before any system runs
// it, so SubmitWorkflow refuses only workflows that bypass that check.
//
// # Scans that cannot act are skipped
//
// Scans keep the paper's grid, but a Server keeps one dirty flag: it
// starts set; a queue push (Submit, SubmitWorkflow, a trigger-monitor
// release), a completion and an idle-check release set it; only a scan
// deciding policy.NoRequest clears it; a clean scan returns before
// dispatch and Decide. That is exact:
//
//   - First-Fit and FCFS dispatch are functions of (queue, free nodes),
//     and idempotent: each job left is wider than the nodes left free.
//   - policy.Decide is a pure function of (demand, largest job, owned
//     nodes), and only the events that set the flag change those.
//   - A grant leaves the server dirty, and so does a refused request,
//     since a bounded pool can free nodes later.
//   - EASY backfill reads the clock and RunningEnds: it scans every time.
package tre

import (
	"fmt"
	"sort"

	"repro/internal/csf"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Config configures a server.
type Config struct {
	// Name is the TRE's identity with the provision service.
	Name string
	// Params is the resource-management policy (B, R, scan intervals).
	Params policy.Params
	// EasyBackfill replaces the HTC dispatch policy with EASY
	// backfilling wired to the server's running-job state (an ablation
	// extension; the paper's policy avoids runtime estimates).
	EasyBackfill bool
}

// Server is the common machinery of both TRE flavours.
type Server struct {
	cfg    Config
	sched  sched.Policy
	engine *sim.Engine
	prov   *csf.ProvisionService

	queue   job.Queue
	owned   int           // nodes currently leased (initial + dynamic)
	busy    int           // nodes running jobs
	initial metrics.Lease // held from Start until Destroy
	grants  []*idleNode   // dynamic grants still held

	submitted    int
	destroyAfter int // completions that end the TRE; 0 never
	completions  []sim.Time
	firstSubmit  sim.Time
	lastDone     sim.Time

	running   map[*job.Job]sim.Time // job -> end time; EASY backfill only
	stopScan  func()
	dirty     bool // a scan may act (see the package doc)
	destroyed bool
	started   bool

	// completeHook lets the MTC trigger monitor observe completions to
	// release dependent tasks. Nil for plain HTC servers.
	completeHook func(*job.Job)

	// Scratch state reused across events so the steady-state scheduling
	// loop allocates nothing: pickBuf/jobBuf back each dispatch's
	// selection, and the free lists recycle the completion and
	// idle-check timer nodes.
	pickBuf  []int
	jobBuf   []*job.Job
	compFree []*compNode
	idleFree []*idleNode
}

// compNode is a reusable completion timer: one pre-bound callback per
// in-flight job, recycled through the server's free list, so dispatching
// a job schedules its completion without allocating a closure per event.
type compNode struct {
	s  *Server
	j  *job.Job
	fn func()
}

func (n *compNode) run() {
	j := n.j
	n.j = nil
	s := n.s
	s.compFree = append(s.compFree, n)
	s.complete(j)
}

// idleNode is one held dynamic grant with its hourly idle-release timer
// (paper Section 3.2.2): it re-arms itself on the same node until its own
// lease closes, then returns to the server's free list.
type idleNode struct {
	s     *Server
	lease metrics.Lease
	size  int
	slot  int // index in s.grants
	fn    func()
}

func (n *idleNode) run() {
	s := n.s
	if s.destroyed {
		return // Destroy closed the lease
	}
	if !policy.ReleaseDecision(s.owned-s.busy, n.size) {
		s.engine.Schedule(s.cfg.Params.IdleCheckInterval, n.fn)
		return
	}
	if err := s.prov.ReleaseLease(s.cfg.Name, n.lease); err != nil {
		panic(fmt.Sprintf("tre: release %d from %s: %v", n.size, s.cfg.Name, err))
	}
	s.owned -= n.size
	s.dirty = true
	last := s.grants[len(s.grants)-1]
	last.slot = n.slot
	s.grants[n.slot] = last
	s.grants = s.grants[:len(s.grants)-1]
	s.idleFree = append(s.idleFree, n)
}

// newServer builds the shared core.
func newServer(engine *sim.Engine, prov *csf.ProvisionService, cfg Config, pick sched.Policy) (*Server, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("tre: empty server name")
	}
	return &Server{
		cfg:         cfg,
		sched:       pick,
		engine:      engine,
		prov:        prov,
		firstSubmit: -1,
		dirty:       true,
	}, nil
}

// NewHTCServer builds an HTC TRE server (First-Fit, minute scans unless
// overridden by cfg.Params).
func NewHTCServer(engine *sim.Engine, prov *csf.ProvisionService, cfg Config) (*Server, error) {
	s, err := newServer(engine, prov, cfg, sched.FirstFit{})
	if err != nil {
		return nil, err
	}
	if cfg.EasyBackfill {
		s.running = make(map[*job.Job]sim.Time)
		s.sched = sched.EasyBackfill{Now: engine.Now, RunningEnds: s.RunningEnds}
	}
	return s, nil
}

// Start acquires the initial resources and begins the scan loop. The
// initial lease must be grantable or the TRE cannot come up.
func (s *Server) Start() error {
	if s.started {
		return fmt.Errorf("tre: %s already started", s.cfg.Name)
	}
	initial, err := s.prov.RequestInitial(s.cfg.Name, s.cfg.Params.InitialNodes)
	if err != nil {
		return err
	}
	s.initial = initial
	s.owned = s.cfg.Params.InitialNodes
	s.started = true
	s.stopScan = s.engine.Every(s.cfg.Params.ScanInterval, s.scan)
	return nil
}

// Submit enqueues one independent job (HTC path) and loads it right away
// when the current lease has room; the scan loop only drives the resource
// negotiation policy.
func (s *Server) Submit(j *job.Job) {
	if s.destroyed {
		return
	}
	s.noteSubmit(1)
	s.queue.Push(j)
	if s.started {
		s.dispatch()
	}
}

func (s *Server) noteSubmit(n int) {
	s.dirty = true
	s.submitted += n
	if s.firstSubmit < 0 {
		s.firstSubmit = s.engine.Now()
	}
}

// scan is the periodic server loop: load whatever jobs fit the owned
// nodes, then negotiate resources against the demand still waiting in the
// queue (paper Section 3.2.2: the ratio of obtaining resources counts jobs
// *in the queue*, i.e. the backlog the current lease cannot serve), and
// dispatch again once a grant arrives. A clean server skips it (see the
// package doc).
func (s *Server) scan() {
	if s.destroyed || !s.dirty {
		return
	}
	s.dispatch()
	state := policy.QueueState{
		AccumulatedDemand: s.queue.AccumulatedDemand(),
		LargestDemand:     s.queue.LargestDemand(),
		OwnedNodes:        s.owned,
	}
	kind, size := policy.Decide(state, s.cfg.Params)
	if kind == policy.NoRequest {
		s.dirty = s.cfg.EasyBackfill
		return
	}
	if lease, granted := s.prov.RequestLease(s.cfg.Name, size); granted > 0 {
		s.owned += granted
		s.armIdleCheck(lease, granted)
		s.dispatch()
	}
}

// dispatch starts every queued job the scheduler selects for the free
// nodes. It runs on reused scratch buffers and pooled completion nodes:
// one dispatch performs no allocation beyond initial buffer growth.
func (s *Server) dispatch() {
	free := s.owned - s.busy
	if free <= 0 || s.queue.Len() == 0 {
		return
	}
	view := s.queue.View()
	s.pickBuf = s.sched.Select(s.pickBuf[:0], view, free)
	picked := s.pickBuf
	if len(picked) == 0 {
		return
	}
	// Copy the selected jobs out before RemoveAll compacts the queue's
	// backing array under the view.
	s.jobBuf = s.jobBuf[:0]
	for _, idx := range picked {
		s.jobBuf = append(s.jobBuf, view[idx])
	}
	s.queue.RemoveAll(picked)
	for _, j := range s.jobBuf {
		s.busy += j.Nodes
		if s.running != nil {
			s.running[j] = s.engine.Now() + j.Runtime
		}
		s.scheduleCompletion(j)
	}
}

// scheduleCompletion arms j's completion timer on a recycled node.
func (s *Server) scheduleCompletion(j *job.Job) {
	var n *compNode
	if k := len(s.compFree); k > 0 {
		n = s.compFree[k-1]
		s.compFree = s.compFree[:k-1]
	} else {
		n = &compNode{s: s}
		n.fn = n.run
	}
	n.j = j
	s.engine.Schedule(j.Runtime, n.fn)
}

// complete finishes a job, freeing its nodes at the server level.
func (s *Server) complete(j *job.Job) {
	if s.destroyed {
		return
	}
	s.busy -= j.Nodes
	s.dirty = true
	delete(s.running, j)
	now := s.engine.Now()
	s.completions = append(s.completions, now)
	s.lastDone = now
	if s.completeHook != nil {
		s.completeHook(j)
	}
	// Load queued work onto the freed nodes immediately; waiting for the
	// next scan would idle them for up to a full scan interval.
	s.dispatch()
	if len(s.completions) == s.destroyAfter {
		if err := s.Destroy(); err != nil {
			panic(fmt.Sprintf("tre: self-destroy of %s: %v", s.cfg.Name, err))
		}
	}
}

// armIdleCheck holds one dynamic grant and registers the paper's hourly
// release timer for it: once the grant's worth of nodes sit idle, close
// exactly that lease; otherwise check again next hour. The timer runs on
// a recycled idleNode instead of a fresh closure per grant.
func (s *Server) armIdleCheck(lease metrics.Lease, size int) {
	var n *idleNode
	if k := len(s.idleFree); k > 0 {
		n = s.idleFree[k-1]
		s.idleFree = s.idleFree[:k-1]
	} else {
		n = &idleNode{s: s}
		n.fn = n.run
	}
	n.lease, n.size, n.slot = lease, size, len(s.grants)
	s.grants = append(s.grants, n)
	s.engine.Schedule(s.cfg.Params.IdleCheckInterval, n.fn)
}

// Destroy stops the scan loop and closes every lease the TRE holds: the
// initial lease and each dynamic grant (paper lifecycle step 8). A grant's
// idle timer still armed finds the TRE destroyed and does nothing.
func (s *Server) Destroy() error {
	if s.destroyed {
		return fmt.Errorf("tre: %s already destroyed", s.cfg.Name)
	}
	s.destroyed = true
	if !s.started {
		return nil
	}
	s.stopScan()
	if err := s.prov.ReleaseLease(s.cfg.Name, s.initial); err != nil {
		return err
	}
	for _, n := range s.grants {
		if err := s.prov.ReleaseLease(s.cfg.Name, n.lease); err != nil {
			return err
		}
	}
	s.grants = nil
	s.owned = 0
	return nil
}

// Destroyed reports whether the TRE tore itself down.
func (s *Server) Destroyed() bool { return s.destroyed }

// Owned reports the current lease size.
func (s *Server) Owned() int { return s.owned }

// Busy reports nodes running jobs.
func (s *Server) Busy() int { return s.busy }

// QueueLen reports the number of queued (ready, undispatched) jobs.
func (s *Server) QueueLen() int { return s.queue.Len() }

// Submitted reports how many jobs were submitted.
func (s *Server) Submitted() int { return s.submitted }

// Completed reports how many jobs finished so far.
func (s *Server) Completed() int { return len(s.completions) }

// CompletedBy reports how many jobs finished at or before t.
func (s *Server) CompletedBy(t sim.Time) int {
	n := 0
	for _, c := range s.completions {
		if c <= t {
			n++
		}
	}
	return n
}

// Makespan reports the time from first submission to last completion, or 0
// before anything completed.
func (s *Server) Makespan() sim.Time {
	if s.firstSubmit < 0 || s.lastDone <= s.firstSubmit {
		return 0
	}
	return s.lastDone - s.firstSubmit
}

// TasksPerSecond is the MTC throughput metric: completed tasks over the
// makespan.
func (s *Server) TasksPerSecond() float64 {
	ms := s.Makespan()
	if ms <= 0 {
		return 0
	}
	return float64(len(s.completions)) / float64(ms)
}

// RunningEnds snapshots running jobs for backfilling schedulers. The
// snapshot is sorted (end time, then width): s.running is a map, and
// leaking its random iteration order would let jobs with tied end
// times change the backfill shadow window between runs.
func (s *Server) RunningEnds() []sched.RunningJob {
	out := make([]sched.RunningJob, 0, len(s.running))
	for j, end := range s.running {
		out = append(out, sched.RunningJob{End: end, Nodes: j.Nodes})
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].End != out[k].End {
			return out[i].End < out[k].End
		}
		return out[i].Nodes < out[k].Nodes
	})
	return out
}
