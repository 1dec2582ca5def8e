// Package metrics implements the paper's cost accounting: per-provider
// resource consumption in node*hours with the cloud's one-hour leasing
// granularity, the resource provider's total and peak consumption, and the
// node-adjustment counts behind the management-overhead analysis.
//
// The central type is Accountant. It keeps one account per owner, and an
// account holds leases of one kind: every grant of nodes is a lease taken
// with AcquireLease, and the handle it returns is the only way to close
// it. CloseLease closes exactly the block its handle names, however many
// others its owner holds, so a bill pairs every grant's start with that
// same grant's end. A runtime environment holds its initial lease and
// each dynamic grant by handle, and its hourly idle check closes the grant
// it watches (paper Section 3.2.2); the direct resource provision model
// leases one handle per end-user job under its provider's account, so an
// end user costs a lease segment, not an account of its own.
//
// At the end of a run CloseAll settles every open lease and the experiment
// harness reads the aggregates.
//
// The peak held nodes of each owner and of the whole platform are running
// maxima, kept up to date on every acquire and close, so reading them is
// O(1). A peak is the maximum of the held-node step function, which at each
// instant counts the level after all of that instant's changes: a lease
// taken and returned at one instant never counts, and a swap at one instant
// is not a double count. So a level is recorded once the clock has moved
// past its instant, never after each call. After CloseAll(end) the peaks
// equal the largest of stats.BucketMax's hourly buckets over Intervals (or
// OwnerIntervals) up to end, which applies releases before acquires and
// drops zero-length intervals.
package metrics

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// HourSeconds is the cloud leasing time unit the paper fixes: resources are
// charged in whole hours, like EC2.
const HourSeconds int64 = 3600

// leaseSeg is a block of count nodes held over [start, end).
type leaseSeg struct {
	start, end int64
	count      int
}

// ownerAccount accumulates one consumer's lease history.
type ownerAccount struct {
	leases        []leaseSeg // by Lease index; end undefined, count 0 once closed
	closed        []leaseSeg
	held          int   // in open leases
	peak          int   // max held after each instant before at
	at            int64 // instant of the last change
	nodesAdjusted int   // sum of node counts over acquire+release operations
}

// Lease is a handle to one block of nodes taken with AcquireLease. The
// zero Lease names no block.
type Lease struct {
	oa *ownerAccount
	i  int
}

// Accountant records lease activity against a virtual clock.
type Accountant struct {
	now    func() int64
	owners map[string]*ownerAccount
	order  []string // deterministic iteration
	held   int      // across all owners
	peak   int      // max held after each instant before at
	at     int64    // instant of the last change
}

// NewAccountant builds an accountant reading time from now (typically
// sim.Engine.Now).
func NewAccountant(now func() int64) *Accountant {
	return &Accountant{now: now, owners: make(map[string]*ownerAccount)}
}

func (a *Accountant) owner(name string) *ownerAccount {
	oa, ok := a.owners[name]
	if !ok {
		oa = &ownerAccount{}
		a.owners[name] = oa
		a.order = append(a.order, name)
	}
	return oa
}

// moveTo brings the running peaks of the platform and of oa to instant
// t ahead of a change there. The held level of an instant the clock has
// left is final, so that is when it enters a peak.
func (a *Accountant) moveTo(oa *ownerAccount, t int64) {
	if t != a.at {
		a.peak = max(a.peak, a.held)
		a.at = t
	}
	if t != oa.at {
		oa.peak = max(oa.peak, oa.held)
		oa.at = t
	}
}

// change applies an acquire (n > 0) or a release (n < 0) of |n| nodes on
// oa now, and returns now.
func (a *Accountant) change(oa *ownerAccount, n int) int64 {
	now := a.now()
	a.moveTo(oa, now)
	a.held += n
	oa.held += n
	oa.nodesAdjusted += max(n, -n)
	return now
}

// AcquireLease records owner obtaining n nodes now as a lease of their
// own, and returns its handle. Adjustment counters grow by n: the paper
// counts every node assignment as setup work.
func (a *Accountant) AcquireLease(owner string, n int) Lease {
	if n <= 0 {
		panic(fmt.Sprintf("metrics: acquire %d nodes", n))
	}
	oa := a.owner(owner)
	oa.leases = append(oa.leases, leaseSeg{start: a.change(oa, n), count: n})
	return Lease{oa: oa, i: len(oa.leases) - 1}
}

// CloseLease records the nodes of lease l returning now, and reports how
// many they were. Closing a lease that is not open is an error.
func (a *Accountant) CloseLease(l Lease) (int, error) {
	oa := l.oa
	if oa == nil || l.i >= len(oa.leases) || oa.leases[l.i].count == 0 {
		return 0, fmt.Errorf("metrics: close of a lease that is not open")
	}
	seg := &oa.leases[l.i]
	n := seg.count
	oa.closed = append(oa.closed, leaseSeg{start: seg.start, end: a.change(oa, -n), count: n})
	seg.count = 0
	return n, nil
}

// CloseAll settles every open lease at time end, which must be at or
// after the clock. Call once when a simulation finishes. Closing counts as
// reclaiming for adjustment purposes only when countAdjust is true (a DCS
// owner keeps its machines; a cloud tear-down wipes nodes).
func (a *Accountant) CloseAll(end int64, countAdjust bool) {
	for _, name := range a.order {
		oa := a.owners[name]
		a.moveTo(oa, end)
		for _, seg := range oa.leases {
			if seg.count == 0 {
				continue
			}
			oa.closed = append(oa.closed, leaseSeg{start: seg.start, end: end, count: seg.count})
			if countAdjust {
				oa.nodesAdjusted += seg.count
			}
		}
		oa.leases = nil
		oa.held = 0
	}
	a.held = 0
}

// Held reports the nodes owner currently holds.
func (a *Accountant) Held(owner string) int {
	if oa, ok := a.owners[owner]; ok {
		return oa.held
	}
	return 0
}

// billed returns the hour-rounded node-seconds of a segment.
func billed(seg leaseSeg) int64 {
	dur := seg.end - seg.start
	if dur <= 0 {
		// Zero-length leases still pay one unit: acquiring a node and
		// dropping it instantly is a whole billing hour, as on EC2.
		dur = 1
	}
	hours := (dur + HourSeconds - 1) / HourSeconds
	return hours * HourSeconds * int64(seg.count)
}

// BilledNodeHours reports owner's consumption in node*hours with hourly
// rounding per lease segment. Open leases are not counted; CloseAll first.
func (a *Accountant) BilledNodeHours(owner string) float64 {
	oa, ok := a.owners[owner]
	if !ok {
		return 0
	}
	var total int64
	for _, seg := range oa.closed {
		total += billed(seg)
	}
	return float64(total) / float64(HourSeconds)
}

// BilledNodeHoursThrough reports owner's consumption in node*hours as
// it stands at time t: closed segments bill normally and still-open
// leases bill as if they closed at t. It is the mid-run snapshot behind
// per-window reports; because open leases round up to the running hour,
// successive snapshots are monotone and converge on the final
// BilledNodeHours once CloseAll settles at the same instant.
func (a *Accountant) BilledNodeHoursThrough(owner string, t int64) float64 {
	oa, ok := a.owners[owner]
	if !ok {
		return 0
	}
	var total int64
	for _, seg := range oa.closed {
		total += billed(seg)
	}
	for _, seg := range oa.leases {
		if seg.count > 0 {
			total += billed(leaseSeg{start: seg.start, end: t, count: seg.count})
		}
	}
	return float64(total) / float64(HourSeconds)
}

// NodesAdjusted reports the accumulated node count over owner's acquire and
// close operations (Figure 14).
func (a *Accountant) NodesAdjusted(owner string) int {
	if oa, ok := a.owners[owner]; ok {
		return oa.nodesAdjusted
	}
	return 0
}

// TotalNodesAdjusted sums NodesAdjusted over all owners.
func (a *Accountant) TotalNodesAdjusted() int {
	total := 0
	for _, name := range a.order {
		total += a.owners[name].nodesAdjusted
	}
	return total
}

// Intervals returns every closed lease as a stats.Interval, across all
// owners, sorted by start. CloseAll first for a complete picture.
func (a *Accountant) Intervals() []stats.Interval {
	var out []stats.Interval
	for _, name := range a.order {
		for _, seg := range a.owners[name].closed {
			if seg.end > seg.start {
				out = append(out, stats.Interval{Start: seg.start, End: seg.end, Level: seg.count})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// OwnerIntervals returns owner's closed leases sorted by start.
func (a *Accountant) OwnerIntervals(owner string) []stats.Interval {
	oa, ok := a.owners[owner]
	if !ok {
		return nil
	}
	var out []stats.Interval
	for _, seg := range oa.closed {
		if seg.end > seg.start {
			out = append(out, stats.Interval{Start: seg.start, End: seg.end, Level: seg.count})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// PeakNodes reports the most nodes held across all owners at once: the
// paper's "peak resource consumption" in nodes per hour (Figure 13), the
// largest of the hourly buckets stats.BucketMax takes over Intervals. It
// is a running maximum (see the package doc); call it after CloseAll.
func (a *Accountant) PeakNodes() int {
	return max(a.peak, a.held)
}

// OwnerPeakNodes reports the most nodes owner held at once, as PeakNodes
// does for all owners.
func (a *Accountant) OwnerPeakNodes(owner string) int {
	if oa, ok := a.owners[owner]; ok {
		return max(oa.peak, oa.held)
	}
	return 0
}
