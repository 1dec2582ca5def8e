// Package stream feeds simulations from online task sources instead of
// materialized job slices: a Source yields jobs one at a time in
// nondecreasing submit order, and a Feeder schedules them onto the
// virtual clock in bounded rounds, so a run over ten million tasks never
// holds more than one round's worth of records in memory.
//
// # Byte-identity invariant
//
// A streamed run must be byte-identical to the same workload run
// materialized over the same horizon. The discrete-event kernel breaks
// same-time ties by schedule-issue order (internal/sim), and materialized
// feeding (systems.Platform.FeedJobs and FeedWorkflows without a feeder)
// schedules every submission at attach — before any event the running
// simulation creates dynamically. Tie outcomes therefore depend
// on every submission at time T being scheduled (issued) before any
// dynamically created event that fires at T.
//
// The Feeder preserves that property with an adaptive lookahead. It
// maintains D = max(MinLookahead, max delay of any record pulled so
// far), where a job record's delay is its runtime (the largest Schedule
// delay its delivery can transitively cause per hop: completions use
// Δ=runtime, periodic scans and idle checks are bounded by
// MinLookahead). A refill round at time r pulls records from every lane
// until the next record's submit exceeds H = r + Stride + D, iterating
// to a fixpoint because pulled records can raise D, then schedules the
// buffered records. The next round runs at r + Stride.
//
// Why that suffices: a dynamic event firing at T is created by an event
// firing at some v <= T with delay Δ = T - v, and Δ <= D_p where p is
// the last round at or before the creator's own creation (every job
// involved was pulled by round p, and D is monotone). The round at or
// before v, say round q >= p, had horizon H_q >= q + Stride + D_q >=
// v + D_p >= T — so the record event at T was already scheduled, with a
// lower issue number, before the dynamic event was created. Ties at T
// then resolve exactly as in the materialized run.
//
// Cross-lane ties matter too (shared-pool acquisitions and accountant
// owner order observe them), so one Feeder serves every lane of an
// instance: each round buffers records from all lanes against one shared
// fixpoint horizon (phase one) and only then schedules them lane by lane
// in attach order (phase two). Records with equal submit times therefore
// land in the same round on every lane and are issued in attach order —
// the same relative order the materialized attach loop produces. Lane
// start hooks (server start, TRE creation) are issued immediately before
// the lane's first record, again mirroring the materialized order.
//
// Identity also holds for runs the horizon cuts. A materialized run
// schedules submissions past the horizon too (they never fire but do
// consume issue numbers), which cannot affect outcomes, whereas the
// Feeder never pulls them; and no system counts an arrival at attach,
// only at delivery, so neither run counts a submission past the horizon.
// FuzzSerialMatchesStreamed in internal/streamrun pins this on random
// workloads over every registered backend, with horizons that cut the
// trace.
//
// # Bounded memory
//
// The Feeder holds only the records pulled for the current round plus
// one peeked record per lane — O(active window), not O(total tasks):
// with stride s and lookahead D, at most the records submitted inside a
// (s + D) window are resident at once. Resident and MaxResident report
// the instrumented counts so tests can pin the bound. Sources built over
// generators (Gen) and streaming trace readers (SWF) are O(1) in the
// task count; FromModel is a convenience that materializes during
// synthetic calibration and only bounds the kernel side.
package stream

import (
	"fmt"
	"io"

	"repro/internal/job"
	"repro/internal/swf"
	"repro/internal/synth"
)

// Source yields jobs in nondecreasing Submit order and returns io.EOF
// after the last one. Implementations need not be safe for concurrent
// use; the Feeder pulls from a single goroutine.
type Source interface {
	Next() (job.Job, error)
}

// sliceSource iterates a materialized job slice.
type sliceSource struct {
	jobs []job.Job
	i    int
}

// FromJobs exposes a materialized, submit-sorted job slice as a Source.
// It is the bridge used to replay existing workloads through the
// streamed path; order is validated by the Feeder on pull.
func FromJobs(jobs []job.Job) Source {
	return &sliceSource{jobs: jobs}
}

func (s *sliceSource) Next() (job.Job, error) {
	if s.i >= len(s.jobs) {
		return job.Job{}, io.EOF
	}
	j := s.jobs[s.i]
	s.i++
	return j, nil
}

// FromModel exposes a synthetic workload model as a Source. The
// generator's calibration passes materialize the whole trace before the
// first job is yielded, so this bounds only the kernel-side memory; use
// Gen for a source that is O(1) in the task count end to end.
func FromModel(m *synth.Model) (Source, error) {
	jobs, err := m.Generate()
	if err != nil {
		return nil, err
	}
	return FromJobs(jobs), nil
}

// SWF streams jobs from an SWF trace reader record by record, skipping
// records with unknown runtime or processors exactly like
// swf.Trace.Jobs. Archive files are not guaranteed to be submit-sorted;
// the Feeder rejects out-of-order input, so pre-sorted traces are
// required (the repository's exported traces are).
func SWF(r *swf.Reader) Source {
	return &swfSource{r: r}
}

type swfSource struct {
	r *swf.Reader
}

func (s *swfSource) Next() (job.Job, error) {
	for {
		rec, err := s.r.Next()
		if err != nil {
			return job.Job{}, err // io.EOF or a parse error
		}
		if j, ok := swf.JobFromRecord(&rec); ok {
			return j, nil
		}
	}
}

// validate applies the per-record admission checks shared by every
// ingestion path: structural job validity plus nondecreasing submit
// order against the previous record.
func validate(j *job.Job, lastSubmit int64, seeded bool) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if seeded && j.Submit < lastSubmit {
		return fmt.Errorf("job %d: submit %d before previous %d (sources must be submit-sorted)",
			j.ID, j.Submit, lastSubmit)
	}
	return nil
}
