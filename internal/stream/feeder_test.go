package stream

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/job"
	"repro/internal/sim"
)

// propLane is one generated lane: a job lane (jobs) or an action lane
// (actions, in the caller's order, which need not be sorted). follow
// holds, per record, the delays of the chain of follow-on events its
// delivery starts: each hop schedules the next.
type propLane struct {
	jobs    []job.Job
	actions []Action
	start   bool // has a start hook
	follow  [][]sim.Time
}

func (l *propLane) len() int { return len(l.jobs) + len(l.actions) }

// at and delta are record i's time and lookahead bound.
func (l *propLane) at(i int) sim.Time {
	if l.jobs != nil {
		return l.jobs[i].Submit
	}
	return l.actions[i].At
}

func (l *propLane) delta(i int) sim.Time {
	if l.jobs != nil {
		return l.jobs[i].Runtime
	}
	return l.actions[i].Delta
}

// propEvent is one observable firing: a lane's start hook (index -1), a
// delivered record (hop 0) or a record's hop-th follow-on event.
type propEvent struct {
	time  sim.Time
	lane  int
	index int
	hop   int
}

// genPropLanes draws two to four lanes on a 30 s grid, so records tie
// across lanes and with follow-on events. A record's follow-on delays
// stay within max(its delta, minLook): the bound a system's events obey.
func genPropLanes(rng *rand.Rand, minLook sim.Time) []propLane {
	gaps := []sim.Time{0, 0, 30, 600, 1800, 3600}
	lanes := make([]propLane, 2+rng.Intn(3))
	for l := range lanes {
		ln := &lanes[l]
		ln.start = rng.Intn(2) == 0
		n := rng.Intn(41)
		t := 30 * rng.Int63n(20)
		times := make([]sim.Time, n)
		for i := range times {
			t += gaps[rng.Intn(len(gaps))]
			times[i] = t
		}
		isJobs := rng.Intn(3) > 0
		if isJobs {
			ln.jobs = []job.Job{}
		} else {
			ln.actions = []Action{}
			// Action lanes may arrive unsorted; AddActions sorts them.
			rng.Shuffle(n, func(i, k int) { times[i], times[k] = times[k], times[i] })
		}
		for i, at := range times {
			delta := 30 * (1 + rng.Int63n(480))
			if isJobs {
				ln.jobs = append(ln.jobs, job.Job{ID: i + 1, Class: job.HTC, Submit: at, Runtime: delta, Nodes: 1})
			} else {
				ln.actions = append(ln.actions, Action{At: at, Delta: delta})
			}
			hops := make([]sim.Time, rng.Intn(3))
			for h := range hops {
				hops[h] = 30 * rng.Int63n(max(delta, minLook)/30+1)
			}
			ln.follow = append(ln.follow, hops)
		}
	}
	return lanes
}

// propDelivery returns record (lane, i)'s delivery callback on e: log
// it, then run its chain of follow-on events.
func propDelivery(e *sim.Engine, lanes []propLane, log *[]propEvent, lane, i int) func() {
	return func() {
		*log = append(*log, propEvent{e.Now(), lane, i, 0})
		hops := lanes[lane].follow[i]
		var next func(h int)
		next = func(h int) {
			if h == len(hops) {
				return
			}
			e.Schedule(hops[h], func() {
				*log = append(*log, propEvent{e.Now(), lane, i, h + 1})
				next(h + 1)
			})
		}
		next(0)
	}
}

// propStart returns lane's start hook on e: an event at the lane's first
// record time, as a system's server start is.
func propStart(e *sim.Engine, log *[]propEvent, lane int) func(first sim.Time) {
	return func(first sim.Time) {
		e.At(first, func() { *log = append(*log, propEvent{e.Now(), lane, -1, 0}) })
	}
}

// replayMaterialized is the reference: every lane scheduled up front in
// attach order, its start hook and then one ScheduleBatch over its
// records in the caller's order.
func replayMaterialized(lanes []propLane) []propEvent {
	e := sim.New()
	var log []propEvent
	for l := range lanes {
		ln := &lanes[l]
		if ln.len() == 0 {
			continue
		}
		if ln.start {
			first := ln.at(0)
			for i := 1; i < ln.len(); i++ {
				first = min(first, ln.at(i))
			}
			propStart(e, &log, l)(first)
		}
		e.ScheduleBatch(ln.len(), ln.at, func(i int) { propDelivery(e, lanes, &log, l, i)() })
	}
	e.RunAll()
	return log
}

// replayFed schedules the same lanes through a Feeder.
func replayFed(t *testing.T, lanes []propLane, opts Options) ([]propEvent, *Feeder) {
	t.Helper()
	e := sim.New()
	f := NewFeeder(e, opts)
	var log []propEvent
	for l := range lanes {
		ln := &lanes[l]
		var start func(sim.Time)
		if ln.start {
			start = propStart(e, &log, l)
		}
		var err error
		if ln.jobs != nil {
			err = f.AddJobs("jobs", FromJobs(ln.jobs), start, func(j *job.Job) {
				propDelivery(e, lanes, &log, l, j.ID-1)()
			})
		} else {
			actions := slices.Clone(ln.actions)
			for i := range actions {
				actions[i].Run = propDelivery(e, lanes, &log, l, i)
			}
			err = f.AddActions("actions", actions, start)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	e.RunAll()
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
	return log, f
}

// maxInWindow is the most records any closed window of width w holds.
func maxInWindow(lanes []propLane, w sim.Time) int {
	var times []sim.Time
	for l := range lanes {
		for i := 0; i < lanes[l].len(); i++ {
			times = append(times, lanes[l].at(i))
		}
	}
	sort.Slice(times, func(i, k int) bool { return times[i] < times[k] })
	best, lo := 0, 0
	for hi := range times {
		for times[hi]-times[lo] > w {
			lo++
		}
		best = max(best, hi-lo+1)
	}
	return best
}

// TestFeederMatchesMaterializedReplay is the property test of the
// Feeder's two-phase lookahead: over seeded job and action lanes with
// same-instant ties across lanes, unsorted action lanes, start hooks and
// follow-on chains reaching the lookahead, at random Stride and
// MinLookahead, the fed run fires the same (time, lane, index, hop)
// sequence as the materialized replay; every record is delivered, none
// stays resident, and residency stays within one stride plus lookahead
// of records (plus one peeked record per lane).
func TestFeederMatchesMaterializedReplay(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{Stride: 60 * (1 + rng.Int63n(180)), MinLookahead: 1 + rng.Int63n(3*sim.Hour)}
		lanes := genPropLanes(rng, opts.MinLookahead)

		want := replayMaterialized(lanes)
		got, f := replayFed(t, lanes, opts)
		if !slices.Equal(got, want) {
			n := 0
			for n < min(len(got), len(want)) && got[n] == want[n] {
				n++
			}
			t.Fatalf("seed %d (%+v): fed run diverges at firing %d of %d/%d:\n fed          %+v\n materialized %+v",
				seed, opts, n, len(got), len(want), got[n:min(n+4, len(got))], want[n:min(n+4, len(want))])
		}

		total, maxDelta := 0, opts.MinLookahead
		for l := range lanes {
			total += lanes[l].len()
			for i := 0; i < lanes[l].len(); i++ {
				maxDelta = max(maxDelta, lanes[l].delta(i))
			}
		}
		if f.Delivered() != total || f.Resident() != 0 {
			t.Fatalf("seed %d: delivered %d of %d, %d still resident", seed, f.Delivered(), total, f.Resident())
		}
		if bound := maxInWindow(lanes, opts.Stride+maxDelta) + len(lanes); f.MaxResident() > bound {
			t.Fatalf("seed %d: MaxResident %d exceeds one stride plus lookahead of records (%d)",
				seed, f.MaxResident(), bound)
		}
	}
}
