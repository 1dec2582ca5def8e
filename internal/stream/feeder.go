package stream

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/job"
	"repro/internal/sim"
)

// DefaultStride is the refill cadence: how far the virtual clock
// advances between pull rounds.
const DefaultStride = sim.Hour

// DefaultMinLookahead bounds the delays of dynamic events that are not
// job completions: periodic queue scans (60s), idle-lease checks
// (3600s) and hourly market ticks all fit inside two hours.
const DefaultMinLookahead = 2 * sim.Hour

// Options tunes a Feeder. Zero values select the defaults above.
type Options struct {
	// Stride is the virtual-time distance between refill rounds.
	Stride sim.Time
	// MinLookahead is the floor of the adaptive lookahead D; it must be
	// at least as large as every non-completion delay the attached
	// systems schedule (see the package comment).
	MinLookahead sim.Time
}

// Action is one deferred attach-time event routed through the Feeder: a
// closure to run At its submit time, plus an upper bound on the delay of
// any event one hop of its execution schedules (for workflow
// submissions, the longest task runtime). Systems use action lanes to
// keep materialized MTC workflows tie-ordered against streamed HTC
// lanes.
type Action struct {
	At    sim.Time
	Delta sim.Time
	Run   func()
}

// record is the Feeder's internal unit: at time at, hand job to the
// lane's deliver (job lanes) or call run (action lanes), raising the
// lookahead by delta.
type record struct {
	at    sim.Time
	delta sim.Time
	job   *job.Job
	run   func()
}

// lane is one ordered stream of records with an optional start hook
// issued immediately before its first record.
type lane struct {
	name    string
	next    func() (record, error) // io.EOF ends the lane
	start   func(first sim.Time)
	deliver func(*job.Job) // nil on action lanes

	peek      record
	hasPeek   bool
	eof       bool
	startDone bool
	lastAt    sim.Time
	buf       []record
}

// Feeder schedules records from a set of lanes onto one engine in
// bounded lookahead rounds; see the package comment for the ordering
// invariant it maintains. All lanes of an instance must share one
// Feeder. Not safe for concurrent use: Add lanes, Start once, then let
// the engine drive it.
type Feeder struct {
	engine   *sim.Engine
	stride   sim.Time
	minLook  sim.Time
	lanes    []*lane
	maxDelta sim.Time
	started  bool
	err      error

	refillFn func()

	resident    int
	maxResident int
	delivered   int
	rounds      int
}

// NewFeeder creates a Feeder over the instance engine.
func NewFeeder(engine *sim.Engine, opts Options) *Feeder {
	if opts.Stride <= 0 {
		opts.Stride = DefaultStride
	}
	if opts.MinLookahead <= 0 {
		opts.MinLookahead = DefaultMinLookahead
	}
	f := &Feeder{engine: engine, stride: opts.Stride, minLook: opts.MinLookahead}
	f.refillFn = f.refill
	return f
}

// jobBlock is how many pulled jobs a job lane copies into one
// allocation. A block stays reachable until its last job is released,
// so it trades one allocation per job for holding up to this many
// finished jobs beside each live one.
const jobBlock = 64

// AddJobs registers a job lane: each pulled job is copied and delivered
// at its submit time. start, if non-nil, runs during the first round
// that pulls a record, receiving the first job's submit time — issue the
// lane's server-start event there, before the first submission.
func (f *Feeder) AddJobs(name string, src Source, start func(first sim.Time), deliver func(*job.Job)) error {
	if f.started {
		return fmt.Errorf("stream: lane %s added after Start", name)
	}
	seeded := false
	var lastSubmit int64
	var block []job.Job
	f.lanes = append(f.lanes, &lane{
		name:    name,
		start:   start,
		deliver: deliver,
		next: func() (record, error) {
			j, err := src.Next()
			if err != nil {
				return record{}, err
			}
			if err := validate(&j, lastSubmit, seeded); err != nil {
				return record{}, err
			}
			seeded, lastSubmit = true, j.Submit
			if len(block) == cap(block) {
				block = make([]job.Job, 0, jobBlock)
			}
			block = append(block, j)
			return record{at: sim.Time(j.Submit), delta: sim.Time(j.Runtime), job: &block[len(block)-1]}, nil
		},
	})
	return nil
}

// AddActions registers a finite action lane. Actions are stably sorted
// by At, preserving the caller's order among equal times — for workflow
// lanes that is the materialized first-seen order, so same-time ties
// replay identically.
func (f *Feeder) AddActions(name string, actions []Action, start func(first sim.Time)) error {
	if f.started {
		return fmt.Errorf("stream: lane %s added after Start", name)
	}
	sorted := make([]Action, len(actions))
	copy(sorted, actions)
	sort.SliceStable(sorted, func(i, k int) bool { return sorted[i].At < sorted[k].At })
	i := 0
	f.lanes = append(f.lanes, &lane{
		name:  name,
		start: start,
		next: func() (record, error) {
			if i >= len(sorted) {
				return record{}, io.EOF
			}
			a := sorted[i]
			i++
			return record{at: a.At, delta: a.Delta, run: a.Run}, nil
		},
	})
	return nil
}

// Start issues the first refill round at the engine's current time. It
// must be called after every lane is added and before the engine runs.
func (f *Feeder) Start() error {
	if f.started {
		return fmt.Errorf("stream: feeder started twice")
	}
	f.started = true
	if len(f.lanes) == 0 {
		return nil
	}
	f.engine.At(f.engine.Now(), f.refillFn)
	return nil
}

// Err reports the first lane failure. A failed feeder stops the engine;
// drivers must check Err after the run and discard the partial result.
func (f *Feeder) Err() error { return f.err }

// Resident reports the records currently held by the feeder (buffered,
// peeked, or scheduled but not yet delivered).
func (f *Feeder) Resident() int { return f.resident }

// MaxResident reports the high-water mark of Resident over the run: the
// bounded-memory guarantee is MaxResident = O(records per stride +
// lookahead window), independent of the total task count.
func (f *Feeder) MaxResident() int { return f.maxResident }

// Delivered reports how many records have been delivered so far.
func (f *Feeder) Delivered() int { return f.delivered }

// Rounds reports how many refill rounds have run.
func (f *Feeder) Rounds() int { return f.rounds }

// lookahead is the current adaptive window D.
func (f *Feeder) lookahead() sim.Time {
	if f.maxDelta > f.minLook {
		return f.maxDelta
	}
	return f.minLook
}

// refill runs one round: pull every lane to the shared fixpoint horizon
// (phase one), then issue the buffered records lane by lane in attach
// order (phase two), and schedule the next round one stride ahead.
func (f *Feeder) refill() {
	if f.err != nil {
		return
	}
	f.rounds++
	r := f.engine.Now()
	horizon := r + f.stride + f.lookahead()
	for {
		for _, ln := range f.lanes {
			if err := f.pull(ln, r, horizon); err != nil {
				f.fail(err)
				return
			}
		}
		next := r + f.stride + f.lookahead()
		if next == horizon {
			break
		}
		horizon = next
	}
	for _, ln := range f.lanes {
		if len(ln.buf) == 0 {
			continue
		}
		if !ln.startDone {
			ln.startDone = true
			if ln.start != nil {
				ln.start(ln.buf[0].at)
			}
		}
		buf, deliver := ln.buf, ln.deliver
		f.engine.ScheduleBatch(len(buf),
			func(i int) sim.Time { return buf[i].at },
			func(i int) {
				f.resident--
				f.delivered++
				if deliver != nil {
					deliver(buf[i].job)
				} else {
					buf[i].run()
				}
			})
		// The batch keeps buf until its last record fires; the next
		// round fills a fresh buffer sized like this one.
		ln.buf = make([]record, 0, len(buf))
	}
	for _, ln := range f.lanes {
		if !ln.eof || ln.hasPeek {
			f.engine.Schedule(f.stride, f.refillFn)
			return
		}
	}
}

// pull buffers ln's records with submit times inside the horizon,
// leaving the first record beyond it peeked for the next round.
func (f *Feeder) pull(ln *lane, r, horizon sim.Time) error {
	for {
		if !ln.hasPeek {
			if ln.eof {
				return nil
			}
			rec, err := ln.next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					ln.eof = true
					return nil
				}
				return fmt.Errorf("stream: lane %s: %w", ln.name, err)
			}
			if rec.at < ln.lastAt {
				return fmt.Errorf("stream: lane %s: record at t=%d before previous t=%d", ln.name, rec.at, ln.lastAt)
			}
			if rec.at < r {
				return fmt.Errorf("stream: lane %s: record at t=%d is in the past of round t=%d", ln.name, rec.at, r)
			}
			ln.lastAt = rec.at
			if rec.delta > f.maxDelta {
				f.maxDelta = rec.delta
			}
			ln.peek, ln.hasPeek = rec, true
			f.resident++
			if f.resident > f.maxResident {
				f.maxResident = f.resident
			}
		}
		if ln.peek.at > horizon {
			return nil
		}
		ln.buf = append(ln.buf, ln.peek)
		ln.hasPeek = false
	}
}

// fail records the first error and halts the engine: a lane failure
// means the simulation is missing input and no further event order is
// meaningful.
func (f *Feeder) fail(err error) {
	f.err = err
	f.engine.Stop()
}
