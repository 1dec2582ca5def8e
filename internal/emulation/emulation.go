// Package emulation reproduces the paper's evaluation *methodology*: an
// emulated system whose management components run for real, against a wall
// clock sped up by a constant factor (the paper uses 100x to compress
// two-week traces).
//
// Unlike internal/sim — which replays the same decision logic on a virtual
// clock for deterministic experiments — this emulator runs the job emitter,
// the HTC server loop and the completion timers as concurrent goroutines
// communicating over channels, with the resource provision service backed
// by the same cluster pool and accountant used everywhere else. As in the
// simulated runtime environment (internal/tre), every grant is a lease
// handle, and the hourly idle check closes the grant it releases. A
// cross-validation test checks that both engines agree on the outcome of
// identical workloads, which is the evidence that the fast simulator stands
// in faithfully for the paper's emulation experiments.
package emulation

import (
	"fmt"
	"time"

	"repro/internal/csf"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/nodepool"
	"repro/internal/policy"
	"repro/internal/sched"
)

// Clock maps wall time onto accelerated virtual seconds.
type Clock struct {
	start   time.Time
	speedup float64
}

// NewClock starts a clock running speedup virtual seconds per wall second.
func NewClock(speedup float64) (*Clock, error) {
	if speedup <= 0 {
		return nil, fmt.Errorf("emulation: speedup %g must be positive", speedup)
	}
	return &Clock{start: time.Now(), speedup: speedup}, nil
}

// Now reports elapsed virtual seconds.
func (c *Clock) Now() int64 {
	return int64(time.Since(c.start).Seconds() * c.speedup)
}

// wall converts a virtual duration to a wall duration.
func (c *Clock) wall(virtual int64) time.Duration {
	return time.Duration(float64(virtual) / c.speedup * float64(time.Second))
}

// Config describes one emulated HTC runtime environment run.
type Config struct {
	// Speedup is the time compression factor (the paper uses 100).
	Speedup float64
	// Jobs is the HTC workload, in any order.
	Jobs []job.Job
	// Params is the DSP resource-management policy.
	Params policy.Params
	// PoolCapacity sizes the cloud; zero means jobs' worst case x 4.
	PoolCapacity int
	// Horizon is the virtual accounting window; zero runs until the
	// workload drains.
	Horizon int64
}

// Report is the emulated run's outcome, mirroring the simulator's metrics.
type Report struct {
	Submitted     int
	Completed     int
	NodeHours     float64
	PeakNodes     int
	NodesAdjusted int
	WallTime      time.Duration
}

// Run executes the emulation: a job-emulator goroutine submits the trace on
// the accelerated clock, the server goroutine scans/dispatches/negotiates,
// and per-job timers deliver completions.
func Run(cfg Config) (Report, error) {
	if err := cfg.Params.Validate(); err != nil {
		return Report{}, err
	}
	if len(cfg.Jobs) == 0 {
		return Report{}, fmt.Errorf("emulation: no jobs")
	}
	if err := job.ValidateAll(cfg.Jobs); err != nil {
		return Report{}, err
	}
	clock, err := NewClock(cfg.Speedup)
	if err != nil {
		return Report{}, err
	}
	capacity := cfg.PoolCapacity
	if capacity == 0 {
		capacity = 4 * (job.MaxNodes(cfg.Jobs) + cfg.Params.InitialNodes)
	}
	pool, err := nodepool.NewPool(capacity)
	if err != nil {
		return Report{}, err
	}
	acct := metrics.NewAccountant(clock.Now)
	prov := csf.NewProvisionService(pool, acct, policy.GrantOrReject)

	jobs := make([]job.Job, len(cfg.Jobs))
	copy(jobs, cfg.Jobs)
	job.SortBySubmit(jobs)
	start := jobs[0].Submit

	const owner = "emulated-htc"
	if _, err := prov.RequestInitial(owner, cfg.Params.InitialNodes); err != nil {
		return Report{}, err
	}

	arrivals := make(chan *job.Job)
	completions := make(chan *job.Job)
	// Job emulator: replay the trace on the accelerated clock.
	go func() {
		for i := range jobs {
			j := &jobs[i]
			if wait := clock.wall(j.Submit-start) - time.Since(clock.start); wait > 0 {
				time.Sleep(wait)
			}
			arrivals <- j
		}
		close(arrivals)
	}()

	scanTicker := time.NewTicker(clock.wall(cfg.Params.ScanInterval))
	defer scanTicker.Stop()
	idleTicker := time.NewTicker(clock.wall(cfg.Params.IdleCheckInterval))
	defer idleTicker.Stop()
	var deadline <-chan time.Time
	if cfg.Horizon > 0 {
		deadline = time.After(clock.wall(cfg.Horizon))
	}

	// Server state, touched only by the server loop below.
	var queue job.Queue
	owned := cfg.Params.InitialNodes
	busy := 0
	completed := 0
	submitted := 0
	peak := 0
	type grant struct {
		lease metrics.Lease
		size  int
	}
	var grants []grant // outstanding dynamic grants
	scheduler := sched.FirstFit{}

	dispatch := func() {
		free := owned - busy
		if free <= 0 || queue.Len() == 0 {
			return
		}
		snapshot := queue.Snapshot()
		picked := scheduler.Select(nil, snapshot, free)
		queue.RemoveAll(picked)
		for _, idx := range picked {
			j := snapshot[idx]
			busy += j.Nodes
			time.AfterFunc(clock.wall(j.Runtime), func() { completions <- j })
		}
		if owned > peak {
			peak = owned
		}
	}
	scan := func() {
		dispatch()
		state := policy.QueueState{
			AccumulatedDemand: queue.AccumulatedDemand(),
			LargestDemand:     queue.LargestDemand(),
			OwnedNodes:        owned,
		}
		kind, size := policy.Decide(state, cfg.Params)
		if kind == policy.NoRequest {
			return
		}
		if lease, granted := prov.RequestLease(owner, size); granted > 0 {
			owned += granted
			grants = append(grants, grant{lease, granted})
			dispatch()
		}
	}
	releaseIdle := func() error {
		idle := owned - busy
		kept := grants[:0]
		for _, g := range grants {
			if policy.ReleaseDecision(idle, g.size) {
				if err := prov.ReleaseLease(owner, g.lease); err != nil {
					return err
				}
				owned -= g.size
				idle -= g.size
				continue
			}
			kept = append(kept, g)
		}
		grants = kept
		return nil
	}

	arrivalsOpen := true
	for {
		if !arrivalsOpen && completed == submitted {
			break
		}
		select {
		case j, ok := <-arrivals:
			if !ok {
				arrivalsOpen = false
				arrivals = nil
				continue
			}
			submitted++
			queue.Push(j)
			dispatch()
		case j := <-completions:
			busy -= j.Nodes
			completed++
			dispatch()
		case <-scanTicker.C:
			scan()
		case <-idleTicker.C:
			if err := releaseIdle(); err != nil {
				return Report{}, err
			}
		case <-deadline:
			goto done
		}
	}
done:
	// The TRE outlives its drained queue: leases (the initial block in
	// particular) bill through the accounting window, matching the
	// simulator's horizon semantics.
	end := clock.Now()
	if cfg.Horizon > 0 && end < cfg.Horizon {
		end = cfg.Horizon
	}
	acct.CloseAll(end, true)
	return Report{
		Submitted:     submitted,
		Completed:     completed,
		NodeHours:     acct.BilledNodeHours(owner),
		PeakNodes:     peak,
		NodesAdjusted: acct.NodesAdjusted(owner),
		WallTime:      time.Since(clock.start),
	}, nil
}
