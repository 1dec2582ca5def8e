package stream

import (
	"io"
	"math/rand"
	"strconv"

	"repro/internal/job"
)

// GenConfig parameterizes Gen, the purpose-built O(1) streaming
// generator: unlike the calibrated synthetic models (which materialize
// the whole trace to hit an arrival-volume target), Gen draws each job
// independently from a seeded PRNG as it is pulled, so arbitrarily long
// runs hold one job at a time on the source side.
type GenConfig struct {
	// Seed drives the PRNG; equal seeds yield identical streams.
	Seed int64
	// Count is the total number of jobs to emit.
	Count int
	// MeanInterarrival is the average submit-time gap in seconds
	// (uniform on [0, 2*mean]); 0 means every job arrives at t=0.
	MeanInterarrival int64
	// MaxRuntime bounds runtimes, uniform on [1, MaxRuntime]; default 1.
	MaxRuntime int64
	// MaxNodes bounds per-job node demand, uniform on [1, MaxNodes];
	// default 1.
	MaxNodes int
	// Start offsets the first submission.
	Start int64
}

// Gen is the streaming generator Source. Not safe for concurrent use.
type Gen struct {
	cfg  GenConfig
	rng  *rand.Rand
	next int64
	i    int
	name [24]byte // reused buffer for building job names
}

// NewGen creates a generator source from cfg.
func NewGen(cfg GenConfig) *Gen {
	if cfg.MaxRuntime <= 0 {
		cfg.MaxRuntime = 1
	}
	if cfg.MaxNodes <= 0 {
		cfg.MaxNodes = 1
	}
	return &Gen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), next: cfg.Start}
}

// Next implements Source.
func (g *Gen) Next() (job.Job, error) {
	if g.i >= g.cfg.Count {
		return job.Job{}, io.EOF
	}
	g.i++
	j := job.Job{
		ID:      g.i,
		Name:    string(strconv.AppendInt(append(g.name[:0], "gen-"...), int64(g.i), 10)),
		Class:   job.HTC,
		Submit:  g.next,
		Runtime: 1 + g.rng.Int63n(g.cfg.MaxRuntime),
		Nodes:   1 + g.rng.Intn(g.cfg.MaxNodes),
	}
	if g.cfg.MeanInterarrival > 0 {
		g.next += g.rng.Int63n(2*g.cfg.MeanInterarrival + 1)
	}
	return j, nil
}
