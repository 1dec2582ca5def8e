// Package synth generates synthetic HTC workload traces calibrated to the
// published characteristics of the paper's two archive traces, which are
// not redistributable here (the module is offline):
//
//   - NASA iPSC/860: 128 nodes, 46.6% utilization, two weeks, jobs arrive
//     smoothly with a strong daily cycle, runtimes are short (minutes),
//     sizes are powers of two.
//   - SDSC BLUE: 144 nodes, 76.2% utilization, two weeks, first week quiet
//     and second week busy with bursty arrivals, runtimes are long (hours).
//
// The generator draws inhomogeneous-Poisson arrivals shaped by a daily
// cycle, weekly factors and per-block burst noise, lognormal runtimes, and
// a discrete node-size mix, then calibrates the arrival volume so realized
// utilization matches the target. Everything is deterministic per seed.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/job"
)

// MaxDays bounds every accounting window the program accepts: spec days,
// suite days and generated trace lengths. Ten years is 260 times the
// paper's two weeks, keeps a window's hourly usage buckets at most 87,600,
// and keeps the window in seconds far from overflowing sim.Time.
const MaxDays = 3650

// SizeWeight gives the relative probability of a job requesting Nodes nodes.
type SizeWeight struct {
	Nodes  int
	Weight float64
}

// Model describes a synthetic HTC trace. All times are in seconds.
type Model struct {
	// Name labels generated jobs and reports.
	Name string
	// Seed makes generation reproducible.
	Seed int64
	// Days is the trace length (the paper uses 14), at most MaxDays.
	Days int
	// MachineNodes is the machine size; no job exceeds it and at least
	// one job requests exactly this size (the paper sizes the DCS/SSP
	// runtime environments from the trace maximum).
	MachineNodes int
	// TargetUtil is the fraction of MachineNodes*span consumed.
	TargetUtil float64
	// RuntimeMedian and RuntimeSigma parameterize the lognormal runtime
	// distribution (median in seconds, sigma in log space).
	RuntimeMedian float64
	RuntimeSigma  float64
	// MaxRuntime clamps runtimes (seconds). Zero means one day.
	MaxRuntime int64
	// SizeWeights is the discrete node-size mix.
	SizeWeights []SizeWeight
	// DailyCycle holds 24 relative arrival weights, one per hour of day.
	// A zero value means a flat cycle.
	DailyCycle [24]float64
	// WeekFactors multiply arrival intensity per week of the trace;
	// missing weeks default to 1.
	WeekFactors []float64
	// BlockSigma adds lognormal burst noise per 6-hour block (0 = smooth).
	BlockSigma float64
	// HourAlignProb is the probability that a job's runtime snaps to
	// just under the next whole hour, modelling batch jobs that run to
	// their requested wallclock limit (common on production machines
	// like SDSC BLUE). Zero disables alignment.
	HourAlignProb float64
	// SizeRuntimeExp correlates runtime with node count: runtimes are
	// multiplied by nodes^SizeRuntimeExp (production traces show wide
	// jobs running longer, not shorter). Zero disables the correlation.
	SizeRuntimeExp float64
	// ShortFrac mixes in a second "short job" runtime mode: with this
	// probability the runtime is drawn from lognormal(ShortMedian,
	// ShortSigma) instead. Production traces are bimodal — swarms of
	// minute-scale test jobs over a base of long production runs — and
	// this mixture is what gives the NASA trace its severe per-job
	// hourly-rounding penalty under DRP.
	ShortFrac   float64
	ShortMedian float64
	ShortSigma  float64
}

// Validate reports the first configuration problem, or nil.
func (m *Model) Validate() error {
	if m.Days <= 0 || m.Days > MaxDays {
		return fmt.Errorf("synth %s: days %d outside [1,%d]", m.Name, m.Days, MaxDays)
	}
	if m.MachineNodes <= 0 {
		return fmt.Errorf("synth %s: machine nodes %d <= 0", m.Name, m.MachineNodes)
	}
	if m.TargetUtil <= 0 || m.TargetUtil >= 1 {
		return fmt.Errorf("synth %s: target utilization %g outside (0,1)", m.Name, m.TargetUtil)
	}
	if m.RuntimeMedian <= 0 {
		return fmt.Errorf("synth %s: runtime median %g <= 0", m.Name, m.RuntimeMedian)
	}
	if m.RuntimeSigma < 0 {
		return fmt.Errorf("synth %s: runtime sigma %g < 0", m.Name, m.RuntimeSigma)
	}
	if len(m.SizeWeights) == 0 {
		return fmt.Errorf("synth %s: no size weights", m.Name)
	}
	var total float64
	for _, sw := range m.SizeWeights {
		if sw.Nodes <= 0 || sw.Nodes > m.MachineNodes {
			return fmt.Errorf("synth %s: size %d outside [1,%d]", m.Name, sw.Nodes, m.MachineNodes)
		}
		if !weightOK(sw.Weight) {
			return fmt.Errorf("synth %s: size weight %g for size %d, want finite and >= 0", m.Name, sw.Weight, sw.Nodes)
		}
		total += sw.Weight
	}
	if !(total > 0 && weightOK(total)) {
		return fmt.Errorf("synth %s: size weights sum to %g, want finite and > 0", m.Name, total)
	}
	for h, w := range m.DailyCycle {
		if !weightOK(w) {
			return fmt.Errorf("synth %s: daily cycle weight %g for hour %d, want finite and >= 0", m.Name, w, h)
		}
	}
	for i, w := range m.WeekFactors {
		if !weightOK(w) {
			return fmt.Errorf("synth %s: week factor %g for week %d, want finite and >= 0", m.Name, w, i+1)
		}
	}
	if _, arrivals := m.arrivalWeights(); !(arrivals > 0 && weightOK(arrivals)) {
		return fmt.Errorf("synth %s: daily cycle and week factors give the %d-day trace arrival weight %g, want finite and > 0",
			m.Name, m.Days, arrivals)
	}
	return nil
}

// weightOK reports whether w can serve as a relative weight: finite and
// not negative. NaN fails.
func weightOK(w float64) bool { return w >= 0 && w <= math.MaxFloat64 }

// Span is the trace length in seconds.
func (m *Model) Span() int64 { return int64(m.Days) * 24 * 3600 }

// Generate produces the calibrated trace. Realized utilization lands within
// about one percent of TargetUtil for the bundled models.
func (m *Model) Generate() ([]job.Job, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	span := m.Span()
	targetNS := m.TargetUtil * float64(m.MachineNodes) * float64(span)

	// Expected per-job demand from the configured distributions.
	meanRuntime := m.RuntimeMedian * math.Exp(m.RuntimeSigma*m.RuntimeSigma/2)
	if m.ShortFrac > 0 {
		meanShort := m.ShortMedian * math.Exp(m.ShortSigma*m.ShortSigma/2)
		meanRuntime = m.ShortFrac*meanShort + (1-m.ShortFrac)*meanRuntime
	}
	var wSum, nodeSum float64
	for _, sw := range m.SizeWeights {
		wSum += sw.Weight
		nodeSum += sw.Weight * float64(sw.Nodes)
	}
	meanNodes := nodeSum / wSum
	expectJobs := targetNS / (meanNodes * meanRuntime)

	// Calibrate in two stages. First adjust the arrival volume so the
	// realized node-seconds get close to the target (the RNG is reseeded
	// each round, so the trace is deterministic in (Seed, scale)). Heavy
	// runtime tails make this converge only roughly, so a second stage
	// rescales runtimes by a bounded factor for an exact match. Every
	// round redraws into one buffer, sized for the expected count plus
	// four standard deviations of its Poisson total and the two
	// full-size jobs.
	scale := 1.0
	var jobs []job.Job
	if expectJobs > 0 && expectJobs <= maxPresize {
		jobs = make([]job.Job, 0, int(expectJobs+4*math.Sqrt(expectJobs))+2)
	}
	for iter := 0; iter < 8; iter++ {
		jobs = m.generateOnce(jobs[:0], expectJobs*scale)
		got := float64(job.TotalNodeSeconds(jobs))
		if got == 0 {
			scale *= 2
			continue
		}
		ratio := targetNS / got
		if math.Abs(ratio-1) < 0.02 {
			break
		}
		scale *= ratio
	}
	maxRuntime := m.MaxRuntime
	if maxRuntime == 0 {
		maxRuntime = 24 * 3600
	}
	for iter := 0; iter < 6; iter++ {
		got := float64(job.TotalNodeSeconds(jobs))
		if got == 0 {
			break
		}
		factor := targetNS / got
		if math.Abs(factor-1) < 0.005 {
			break
		}
		// Bound the per-pass stretch so the runtime distribution keeps
		// its shape; clamped jobs make repeated passes necessary.
		if factor > 1.5 {
			factor = 1.5
		}
		if factor < 0.67 {
			factor = 0.67
		}
		for i := range jobs {
			r := int64(float64(jobs[i].Runtime) * factor)
			if r < 1 {
				r = 1
			}
			if r > maxRuntime {
				r = maxRuntime
			}
			jobs[i].Runtime = r
		}
	}
	job.SortBySubmit(jobs)
	name := []byte(m.Name + "-")
	prefix := len(name)
	for i := range jobs {
		jobs[i].ID = i + 1
		name = strconv.AppendInt(name[:prefix], int64(i+1), 10)
		jobs[i].Name = string(name)
	}
	if err := job.ValidateAll(jobs); err != nil {
		return nil, fmt.Errorf("synth %s: generated invalid workload: %w", m.Name, err)
	}
	return jobs, nil
}

// arrivalWeights returns the hourly arrival weights over the span, before
// burst noise, and their sum.
func (m *Model) arrivalWeights() ([]float64, float64) {
	cycle := m.DailyCycle
	if cycle == ([24]float64{}) {
		for i := range cycle {
			cycle[i] = 1
		}
	}
	weights := make([]float64, m.Span()/3600)
	var total float64
	for h := range weights {
		w := cycle[h%24]
		if week := h / (24 * 7); week < len(m.WeekFactors) {
			w *= m.WeekFactors[week]
		}
		weights[h] = w
		total += w
	}
	return weights, total
}

// maxPresize caps the job buffer Generate allocates before drawing; a
// larger expected count grows the buffer by appending instead.
const maxPresize = 1 << 24

// generateOnce draws one trace with the given expected job count,
// appending its jobs to jobs.
func (m *Model) generateOnce(jobs []job.Job, expectJobs float64) []job.Job {
	rng := rand.New(rand.NewSource(m.Seed))
	span := m.Span()

	weights, totalW := m.arrivalWeights()
	hours := len(weights)
	if m.BlockSigma > 0 {
		// Apply a shared lognormal multiplier to each 6-hour block.
		totalW = 0
		for b := 0; b*6 < hours; b++ {
			mult := math.Exp(rng.NormFloat64() * m.BlockSigma)
			for h := b * 6; h < (b+1)*6 && h < hours; h++ {
				weights[h] *= mult
				totalW += weights[h]
			}
		}
	}

	maxRuntime := m.MaxRuntime
	if maxRuntime == 0 {
		maxRuntime = 24 * 3600
	}
	for h := 0; h < hours; h++ {
		lambda := expectJobs * weights[h] / totalW
		n := poisson(rng, lambda)
		for k := 0; k < n; k++ {
			at := int64(h)*3600 + int64(rng.Intn(3600))
			nodes := m.sampleSize(rng)
			jobs = append(jobs, job.Job{
				Class:   job.HTC,
				Submit:  at,
				Runtime: m.sampleRuntime(rng, nodes, maxRuntime),
				Nodes:   nodes,
			})
		}
	}

	// Guarantee the trace maximum equals the machine size: the paper
	// derives DCS/SSP configurations from it. Two full-size jobs early
	// and mid-trace, with short runtimes so they barely move utilization.
	for _, at := range []int64{span / 10, span / 2} {
		jobs = append(jobs, job.Job{
			Class:   job.HTC,
			Submit:  at,
			Runtime: m.sampleRuntime(rng, m.MachineNodes, maxRuntime),
			Nodes:   m.MachineNodes,
		})
	}
	return jobs
}

func (m *Model) sampleRuntime(rng *rand.Rand, nodes int, maxRuntime int64) int64 {
	var base float64
	if m.ShortFrac > 0 && rng.Float64() < m.ShortFrac {
		base = m.ShortMedian * math.Exp(rng.NormFloat64()*m.ShortSigma)
	} else {
		base = m.RuntimeMedian * math.Exp(rng.NormFloat64()*m.RuntimeSigma)
		if m.SizeRuntimeExp > 0 && nodes > 1 {
			base *= math.Pow(float64(nodes), m.SizeRuntimeExp)
		}
	}
	r := int64(base)
	if m.HourAlignProb > 0 && rng.Float64() < m.HourAlignProb {
		// Snap up to just below the next hour boundary: the job ran to
		// its requested whole-hour wallclock limit.
		hours := r/3600 + 1
		r = hours*3600 - int64(rng.Intn(300)) - 1
	}
	if r < 1 {
		r = 1
	}
	if r > maxRuntime {
		r = maxRuntime
	}
	return r
}

func (m *Model) sampleSize(rng *rand.Rand) int {
	var total float64
	for _, sw := range m.SizeWeights {
		total += sw.Weight
	}
	x := rng.Float64() * total
	for _, sw := range m.SizeWeights {
		x -= sw.Weight
		if x <= 0 {
			return sw.Nodes
		}
	}
	return m.SizeWeights[len(m.SizeWeights)-1].Nodes
}

// SDSCBlueWindowed returns the BLUE model truncated to days. Windows
// shorter than the full two weeks compress the week factors so the
// quiet-then-busy shape survives the truncation; both the experiment
// suite and the scenario compiler build shortened BLUE traces through
// this single helper.
func SDSCBlueWindowed(seed int64, days int) *Model {
	m := SDSCBlue(seed)
	m.Days = days
	if days < 14 {
		m.WeekFactors = []float64{0.55, 1.45, 1.45}
	}
	return m
}

// poisson draws a Poisson variate by inversion (Knuth); adequate for the
// small per-hour rates used here.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation for large rates keeps this O(1).
		n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// MillionTask returns the kernel stress model: roughly one million short,
// narrow tasks over two weeks on a 1024-node machine. It is not
// calibrated to an archive trace — its job is to drive 10⁶-task runs
// through the simulation kernel (each task is at least two events, a
// submission and a completion, plus the scheduling traffic it causes) so
// dcscen/dawningbench and the benchmarks can measure event-loop
// throughput at the ROADMAP's target scale. MillionTaskWindowed trims the
// window for scenario specs with fewer days.
func MillionTask(seed int64) *Model {
	return MillionTaskWindowed(seed, 14)
}

// MillionTaskWindowed is MillionTask over a days-long window; job volume
// scales with the window, reaching ≈1e6 at the full two weeks.
func MillionTaskWindowed(seed int64, days int) *Model {
	return &Model{
		Name:          "million-task",
		Seed:          seed,
		Days:          days,
		MachineNodes:  1024,
		TargetUtil:    0.70,
		RuntimeMedian: 390,
		RuntimeSigma:  0.7,
		MaxRuntime:    4 * 3600,
		SizeWeights: []SizeWeight{
			{1, 0.72}, {2, 0.18}, {4, 0.07}, {8, 0.025}, {16, 0.005},
		},
		DailyCycle: [24]float64{
			0.70, 0.65, 0.62, 0.60, 0.60, 0.65, 0.75, 0.90,
			1.10, 1.25, 1.32, 1.35, 1.32, 1.28, 1.30, 1.28,
			1.22, 1.15, 1.08, 1.00, 0.92, 0.85, 0.78, 0.74,
		},
		BlockSigma: 0.05,
	}
}

// NASAiPSC returns the model calibrated to the paper's NASA iPSC trace:
// a lightly loaded machine with smooth daily arrivals of short jobs.
func NASAiPSC(seed int64) *Model {
	return &Model{
		Name:          "nasa-ipsc",
		Seed:          seed,
		Days:          14,
		MachineNodes:  128,
		TargetUtil:    0.466,
		RuntimeMedian: 21000,
		RuntimeSigma:  0.6,
		MaxRuntime:    24 * 3600,
		ShortFrac:     0.93,
		ShortMedian:   260,
		ShortSigma:    0.9,
		SizeWeights: []SizeWeight{
			{1, 0.34}, {2, 0.17}, {4, 0.16}, {8, 0.14},
			{16, 0.11}, {32, 0.06}, {64, 0.015}, {128, 0.003},
		},
		DailyCycle: [24]float64{
			0.60, 0.55, 0.50, 0.50, 0.50, 0.55, 0.65, 0.80,
			1.10, 1.30, 1.40, 1.45, 1.40, 1.35, 1.40, 1.40,
			1.35, 1.25, 1.10, 1.00, 0.90, 0.80, 0.70, 0.65,
		},
		WeekFactors: []float64{1.0, 1.05},
		BlockSigma:  0.05,
	}
}

// SDSCBlue returns the model calibrated to the paper's SDSC BLUE trace:
// a heavily loaded machine, quiet in week one, busy and bursty in week two.
// The utilization target (0.68) matches the paper's *measured* two-week
// window (its DRP consumption sits ~26% under the 144-node capacity),
// rather than the archive's whole-trace 76.2%; half the jobs run to whole-
// hour wallclock limits, which is why the paper's BLUE numbers show almost
// no hourly-rounding penalty.
func SDSCBlue(seed int64) *Model {
	return &Model{
		Name:          "sdsc-blue",
		Seed:          seed,
		Days:          14,
		MachineNodes:  144,
		TargetUtil:    0.68,
		RuntimeMedian: 2600,
		RuntimeSigma:  1.0,
		MaxRuntime:    24 * 3600,
		HourAlignProb: 0.6,
		SizeWeights: []SizeWeight{
			{1, 0.30}, {2, 0.20}, {4, 0.20}, {8, 0.15},
			{16, 0.10}, {32, 0.04}, {64, 0.008}, {144, 0.002},
		},
		DailyCycle: [24]float64{
			0.75, 0.70, 0.65, 0.62, 0.62, 0.65, 0.75, 0.90,
			1.05, 1.15, 1.25, 1.28, 1.25, 1.22, 1.25, 1.22,
			1.18, 1.12, 1.05, 1.00, 0.92, 0.85, 0.80, 0.78,
		},
		WeekFactors:    []float64{0.82, 1.18},
		BlockSigma:     0.12,
		SizeRuntimeExp: 0.15,
	}
}
