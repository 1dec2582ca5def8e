package tre

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/csf"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/nodepool"
	"repro/internal/policy"
	"repro/internal/sim"
)

// FuzzDirtyScanMatchesAlwaysScan drives random runtime environments
// twice, as built and with every scan forced to run in full, and
// requires identical outcomes: skipping the scans a clean server would
// waste changes nothing. A seed draws one to four HTC and MTC tenants
// (random B, R, scan and idle-check intervals, EASY backfill on some
// HTC ones) competing for one bounded or unbounded pool under either
// provision policy. Plain go test replays the seeds added below.
func FuzzDirtyScanMatchesAlwaysScan(f *testing.F) {
	for seed := int64(1); seed <= 40; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		built := runTenants(seed, false)
		forced := runTenants(seed, true)
		if !reflect.DeepEqual(built, forced) {
			t.Fatalf("seed %d: dirty-tracked scans diverged from always-scan:\n built  %+v\n forced %+v", seed, built, forced)
		}
	})
}

// alwaysScan marks s dirty from a timer on its scan grid. Started in the
// same event as the server and before it, each mark fires just ahead of
// its scan, so every scan runs in full. The timer schedules nothing, so
// the other events keep their relative order.
func alwaysScan(s *Server) {
	s.engine.Every(s.cfg.Params.ScanInterval, func() { s.dirty = true })
}

// tenantOutcome is what one runtime environment left behind.
type tenantOutcome struct {
	StartErr      string
	Completions   []sim.Time
	Owned, Busy   int
	Queued        int
	Destroyed     bool
	NodeHours     float64
	NodesAdjusted int
	Peak          int
}

// runOutcome is one run's observable result.
type runOutcome struct {
	Tenants  []tenantOutcome
	Rejected int
	Peak     int
}

// runTenants builds seed's tenants on one pool, feeds them their jobs
// and runs six simulated hours, forcing every scan when always is set.
func runTenants(seed int64, always bool) runOutcome {
	rng := rand.New(rand.NewSource(seed))
	const horizon = 6 * sim.Hour
	engine := sim.New()
	capacity := 1 << 20
	if rng.Intn(2) == 0 {
		capacity = 8 + rng.Intn(64)
	}
	pool, err := nodepool.NewPool(capacity)
	if err != nil {
		panic(err)
	}
	acct := metrics.NewAccountant(engine.Now)
	pp := policy.GrantOrReject
	if rng.Intn(3) == 0 {
		pp = policy.BestEffort
	}
	prov := csf.NewProvisionService(pool, acct, pp)

	tenants := 1 + rng.Intn(4)
	servers := make([]*Server, tenants)
	startErrs := make([]string, tenants)
	for k := range servers {
		name := fmt.Sprintf("t%d", k)
		mtc := rng.Intn(3) == 0
		params := policy.Params{
			InitialNodes:      1 + rng.Intn(12),
			ThresholdRatio:    0.25 * float64(1+rng.Intn(16)),
			ScanInterval:      sim.Time(10 + rng.Intn(110)),
			IdleCheckInterval: sim.Time(300 + rng.Intn(1500)),
		}
		if mtc {
			params.ScanInterval = sim.Time(1 + rng.Intn(9))
		}
		cfg := Config{Name: name, Params: params, EasyBackfill: !mtc && rng.Intn(4) == 0}
		var s *Server
		var feed func()
		maxNodes := 1 + rng.Intn(2*params.InitialNodes+8)
		if mtc {
			m, err := NewMTCServer(engine, prov, cfg)
			if err != nil {
				panic(err)
			}
			s = m.Server
			workflows, tasks := randomWorkflows(rng, maxNodes)
			if rng.Intn(2) == 0 {
				m.DestroyAfter(tasks)
			}
			feed = func() {
				for _, wf := range workflows {
					engine.At(wf[0].Submit, func() {
						if err := m.SubmitWorkflow(wf); err != nil {
							panic(err)
						}
					})
				}
			}
		} else {
			srv, err := NewHTCServer(engine, prov, cfg)
			if err != nil {
				panic(err)
			}
			s = srv
			jobs := randomJobs(rng, maxNodes)
			feed = func() {
				for _, j := range jobs {
					engine.At(j.Submit, func() { srv.Submit(j) })
				}
			}
		}
		servers[k] = s
		engine.At(sim.Time(rng.Intn(1800)), func() {
			if always {
				alwaysScan(s)
			}
			if err := s.Start(); err != nil {
				startErrs[k] = err.Error()
			}
			feed()
		})
	}
	engine.Run(horizon)
	acct.CloseAll(horizon, true)

	out := runOutcome{Rejected: prov.RejectedRequests(), Peak: acct.PeakNodes()}
	for k, s := range servers {
		out.Tenants = append(out.Tenants, tenantOutcome{
			StartErr:      startErrs[k],
			Completions:   s.completions,
			Owned:         s.Owned(),
			Busy:          s.Busy(),
			Queued:        s.QueueLen(),
			Destroyed:     s.Destroyed(),
			NodeHours:     acct.BilledNodeHours(s.cfg.Name),
			NodesAdjusted: acct.NodesAdjusted(s.cfg.Name),
			Peak:          acct.OwnerPeakNodes(s.cfg.Name),
		})
	}
	return out
}

// randomJobs draws up to 80 independent jobs over the first four hours,
// each submitted at or after its tenant's start.
func randomJobs(rng *rand.Rand, maxNodes int) []*job.Job {
	jobs := make([]*job.Job, 1+rng.Intn(80))
	for i := range jobs {
		jobs[i] = &job.Job{
			ID:      i + 1,
			Class:   job.HTC,
			Submit:  1800 + rng.Int63n(4*sim.Hour),
			Runtime: 1 + rng.Int63n(1800),
			Nodes:   1 + rng.Intn(maxNodes),
		}
	}
	return jobs
}

// randomWorkflows draws one to three workflows of up to 20 tasks, each
// depending on some of the three tasks before it, and returns
// them with their total task count.
func randomWorkflows(rng *rand.Rand, maxNodes int) ([][]*job.Job, int) {
	workflows := make([][]*job.Job, 1+rng.Intn(3))
	id, total := 0, 0
	for w := range workflows {
		submit := 1800 + rng.Int63n(3*sim.Hour)
		tasks := make([]*job.Job, 1+rng.Intn(20))
		for i := range tasks {
			id++
			tasks[i] = &job.Job{
				ID:       id,
				Class:    job.MTC,
				Submit:   submit,
				Runtime:  1 + rng.Int63n(600),
				Nodes:    1 + rng.Intn(maxNodes),
				Workflow: fmt.Sprintf("wf%d", w),
			}
			for d := max(0, i-3); d < i; d++ {
				if rng.Intn(2) == 0 {
					tasks[i].Deps = append(tasks[i].Deps, tasks[d].ID)
				}
			}
		}
		workflows[w] = tasks
		total += len(tasks)
	}
	return workflows, total
}
