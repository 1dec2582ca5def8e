// Package job defines the workload unit shared by every subsystem: a job
// (an independent HTC batch job or a single MTC workflow task) together
// with a submission queue that preserves arrival order.
//
// Time quantities are virtual-clock seconds (see internal/sim). Resource
// demand is an integer node count: the paper scales every trace to a
// one-CPU-per-node configuration, so nodes are the only resource dimension.
package job

import (
	"fmt"
	"sort"
)

// Class distinguishes the two workload families the paper consolidates.
type Class int

const (
	// HTC jobs are independent parallel/sequential batch jobs.
	HTC Class = iota
	// MTC jobs are workflow tasks with dependencies and short runtimes.
	MTC
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case HTC:
		return "HTC"
	case MTC:
		return "MTC"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Job is a unit of work. Jobs are immutable once generated; scheduling
// state lives in the runtime environments, not here.
type Job struct {
	// ID is unique within one workload.
	ID int
	// Name is a human-readable label (task type for workflow tasks).
	Name string
	// Class records whether this is an HTC batch job or an MTC task.
	Class Class
	// Submit is the arrival time in seconds since the workload epoch.
	// For MTC tasks it is the submission time of the enclosing workflow;
	// dependency release decides when the task becomes runnable.
	Submit int64
	// Runtime is the execution duration in seconds once started.
	Runtime int64
	// Nodes is the resource demand in nodes (>= 1).
	Nodes int
	// Deps lists IDs of jobs that must complete before this one may start.
	// Empty for independent HTC jobs.
	Deps []int
	// Workflow names the enclosing workflow; empty for independent jobs.
	Workflow string
}

// Validate reports the first structural problem with j, or nil.
func (j *Job) Validate() error {
	if j.Nodes < 1 {
		return fmt.Errorf("job %d: nodes %d < 1", j.ID, j.Nodes)
	}
	if j.Runtime < 0 {
		return fmt.Errorf("job %d: negative runtime %d", j.ID, j.Runtime)
	}
	if j.Submit < 0 {
		return fmt.Errorf("job %d: negative submit time %d", j.ID, j.Submit)
	}
	for _, d := range j.Deps {
		if d == j.ID {
			return fmt.Errorf("job %d: depends on itself", j.ID)
		}
	}
	return nil
}

// NodeSeconds is the job's raw resource demand (nodes x runtime).
func (j *Job) NodeSeconds() int64 {
	return int64(j.Nodes) * j.Runtime
}

// Clone returns a deep copy of the job: the Deps slice gets its own
// backing array, so mutating the copy can never reach the original.
func (j *Job) Clone() Job {
	out := *j
	if j.Deps != nil {
		out.Deps = make([]int, len(j.Deps))
		copy(out.Deps, j.Deps)
	}
	return out
}

// CloneAll deep-copies a job slice. Concurrent simulation runs each get
// their own copy so no run ever aliases another's workload.
func CloneAll(jobs []Job) []Job {
	if jobs == nil {
		return nil
	}
	out := make([]Job, len(jobs))
	for i := range jobs {
		out[i] = jobs[i].Clone()
	}
	return out
}

// ValidateAll checks every job in a workload and that IDs are unique.
func ValidateAll(jobs []Job) error {
	seen := newIDSet(jobs)
	for i := range jobs {
		if err := jobs[i].Validate(); err != nil {
			return err
		}
		if !seen.add(jobs[i].ID) {
			return fmt.Errorf("duplicate job ID %d", jobs[i].ID)
		}
	}
	for i := range jobs {
		for _, d := range jobs[i].Deps {
			if !seen.has(d) {
				return fmt.Errorf("job %d: dependency %d not in workload", jobs[i].ID, d)
			}
		}
	}
	return nil
}

// idSet is the set of job IDs ValidateAll has seen. When the workload's
// IDs span fewer than 64 values per job, as generated and parsed traces'
// do, it is a bitset indexed by ID-lo, at most one word per job;
// otherwise a map. Either way it costs O(len(jobs)) memory.
type idSet struct {
	lo   int
	bits []uint64
	m    map[int]bool
}

func newIDSet(jobs []Job) idSet {
	if len(jobs) == 0 {
		return idSet{}
	}
	lo, hi := jobs[0].ID, jobs[0].ID
	for i := range jobs {
		lo = min(lo, jobs[i].ID)
		hi = max(hi, jobs[i].ID)
	}
	// hi-lo in uint64 is exact even when it overflows int.
	if width := uint64(hi) - uint64(lo); width < 64*uint64(len(jobs)) {
		return idSet{lo: lo, bits: make([]uint64, width/64+1)}
	}
	return idSet{m: make(map[int]bool, len(jobs))}
}

// add inserts id and reports whether it was absent.
func (s *idSet) add(id int) bool {
	if s.bits == nil {
		if s.m[id] {
			return false
		}
		s.m[id] = true
		return true
	}
	k := uint64(id) - uint64(s.lo)
	w, b := k/64, uint64(1)<<(k%64)
	if s.bits[w]&b != 0 {
		return false
	}
	s.bits[w] |= b
	return true
}

// has reports whether id was added. An id outside [lo, hi] has an offset
// above hi-lo (mod 2^64), whose bit is never set or lies past the bitset.
func (s *idSet) has(id int) bool {
	if s.bits == nil {
		return s.m[id]
	}
	k := uint64(id) - uint64(s.lo)
	return k/64 < uint64(len(s.bits)) && s.bits[k/64]&(1<<(k%64)) != 0
}

// SortBySubmit orders jobs by (Submit, ID) in place.
func SortBySubmit(jobs []Job) {
	sort.Slice(jobs, func(i, k int) bool {
		if jobs[i].Submit != jobs[k].Submit {
			return jobs[i].Submit < jobs[k].Submit
		}
		return jobs[i].ID < jobs[k].ID
	})
}

// Span reports the [min submit, max completion-if-run-immediately] window
// of a workload, useful for sizing simulation horizons. It returns 0,0 for
// an empty slice.
func Span(jobs []Job) (start, end int64) {
	if len(jobs) == 0 {
		return 0, 0
	}
	start = jobs[0].Submit
	for i := range jobs {
		if jobs[i].Submit < start {
			start = jobs[i].Submit
		}
		if t := jobs[i].Submit + jobs[i].Runtime; t > end {
			end = t
		}
	}
	return start, end
}

// TotalNodeSeconds sums the raw demand of a workload.
func TotalNodeSeconds(jobs []Job) int64 {
	var total int64
	for i := range jobs {
		total += jobs[i].NodeSeconds()
	}
	return total
}

// MaxNodes reports the largest single-job node demand, 0 for empty input.
func MaxNodes(jobs []Job) int {
	m := 0
	for i := range jobs {
		if jobs[i].Nodes > m {
			m = jobs[i].Nodes
		}
	}
	return m
}

// Queue is a FIFO of pending jobs preserving arrival order. The zero value
// is an empty queue ready to use.
type Queue struct {
	entries []*Job
}

// Push appends a job to the queue tail.
func (q *Queue) Push(j *Job) { q.entries = append(q.entries, j) }

// Len reports the number of queued jobs.
func (q *Queue) Len() int { return len(q.entries) }

// At returns the i-th queued job in arrival order.
func (q *Queue) At(i int) *Job { return q.entries[i] }

// Remove deletes the i-th entry, preserving the order of the rest.
func (q *Queue) Remove(i int) *Job {
	j := q.entries[i]
	q.entries = append(q.entries[:i], q.entries[i+1:]...)
	return j
}

// RemoveAll deletes the entries at the given sorted index list.
func (q *Queue) RemoveAll(sortedIdx []int) {
	if len(sortedIdx) == 0 {
		return
	}
	kept := q.entries[:0]
	k := 0
	for i, e := range q.entries {
		if k < len(sortedIdx) && sortedIdx[k] == i {
			k++
			continue
		}
		kept = append(kept, e)
	}
	// Zero the tail so removed jobs are collectable.
	for i := len(kept); i < len(q.entries); i++ {
		q.entries[i] = nil
	}
	q.entries = kept
}

// AccumulatedDemand sums node demand over all queued jobs: the numerator of
// the paper's "ratio of obtaining resources".
func (q *Queue) AccumulatedDemand() int {
	total := 0
	for _, e := range q.entries {
		total += e.Nodes
	}
	return total
}

// LargestDemand reports the biggest single-job node demand in the queue.
func (q *Queue) LargestDemand() int {
	m := 0
	for _, e := range q.entries {
		if e.Nodes > m {
			m = e.Nodes
		}
	}
	return m
}

// Snapshot returns a copy of the queued jobs in order. The caller must
// not mutate the returned jobs.
func (q *Queue) Snapshot() []*Job {
	out := make([]*Job, len(q.entries))
	copy(out, q.entries)
	return out
}

// View returns the queue's backing slice in arrival order, valid only
// until the next queue mutation (Push/Remove/RemoveAll): the hot
// scheduling path reads it in place instead of copying a Snapshot per
// scan. Callers that remove selected entries must copy the selected jobs
// out before calling RemoveAll, which compacts this slice.
func (q *Queue) View() []*Job { return q.entries }
