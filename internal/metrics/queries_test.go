package metrics

import "repro/internal/stats"

// The queries below read the accountant only for the tests: no run
// reports them.

// ExactNodeHours reports owner's consumption without hourly rounding.
func (a *Accountant) ExactNodeHours(owner string) float64 {
	oa, ok := a.owners[owner]
	if !ok {
		return 0
	}
	var total int64
	for _, seg := range oa.closed {
		if seg.end > seg.start {
			total += (seg.end - seg.start) * int64(seg.count)
		}
	}
	return float64(total) / float64(HourSeconds)
}

// TotalBilledNodeHours sums billed consumption over all owners: the
// resource provider's total resource consumption (Figure 12).
func (a *Accountant) TotalBilledNodeHours() float64 {
	var total float64
	for _, name := range a.order {
		total += a.BilledNodeHours(name)
	}
	return total
}

// Owners lists owner names in first-seen order.
func (a *Accountant) Owners() []string {
	out := make([]string, len(a.order))
	copy(out, a.order)
	return out
}

// HourlyNodes returns the per-hour peak held nodes series across all
// owners, for plotting capacity-planning profiles.
func (a *Accountant) HourlyNodes(horizon int64) []int {
	return stats.BucketMax(a.Intervals(), horizon, HourSeconds)
}
