package metrics

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// fakeClock provides a manually advanced now function.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { return c.t }

func TestBilledRoundsUpToWholeHours(t *testing.T) {
	c := &fakeClock{}
	a := NewAccountant(c.now)
	a.Acquire("sp", 4)
	c.t = 90 * 60 // 1.5 hours
	if err := a.Release("sp", 4); err != nil {
		t.Fatal(err)
	}
	a.CloseAll(c.t, true)
	// 1.5h rounds to 2h * 4 nodes = 8 node-hours.
	if got := a.BilledNodeHours("sp"); got != 8 {
		t.Errorf("BilledNodeHours = %g, want 8", got)
	}
	if got := a.ExactNodeHours("sp"); got != 6 {
		t.Errorf("ExactNodeHours = %g, want 6", got)
	}
}

func TestExactHourNotRounded(t *testing.T) {
	c := &fakeClock{}
	a := NewAccountant(c.now)
	a.Acquire("sp", 2)
	c.t = 3600
	if err := a.Release("sp", 2); err != nil {
		t.Fatal(err)
	}
	if got := a.BilledNodeHours("sp"); got != 2 {
		t.Errorf("BilledNodeHours = %g, want 2 (exactly one hour)", got)
	}
}

func TestZeroLengthLeaseBillsOneHour(t *testing.T) {
	c := &fakeClock{}
	a := NewAccountant(c.now)
	a.Acquire("sp", 3)
	if err := a.Release("sp", 3); err != nil {
		t.Fatal(err)
	}
	if got := a.BilledNodeHours("sp"); got != 3 {
		t.Errorf("BilledNodeHours = %g, want 3 (instant lease pays an hour)", got)
	}
}

func TestLIFOCloseKeepsInitialLease(t *testing.T) {
	c := &fakeClock{}
	a := NewAccountant(c.now)
	a.Acquire("sp", 10) // initial resources at t=0
	c.t = 3600
	a.Acquire("sp", 5) // dynamic block
	c.t = 2 * 3600
	if err := a.Release("sp", 5); err != nil {
		t.Fatal(err)
	}
	c.t = 10 * 3600
	a.CloseAll(c.t, false)
	// Initial 10 nodes for 10h = 100; dynamic 5 nodes for 1h = 5.
	if got := a.BilledNodeHours("sp"); got != 105 {
		t.Errorf("BilledNodeHours = %g, want 105", got)
	}
}

func TestReleaseSpanningMultipleSegments(t *testing.T) {
	c := &fakeClock{}
	a := NewAccountant(c.now)
	a.Acquire("sp", 3)
	c.t = 3600
	a.Acquire("sp", 2)
	c.t = 7200
	// Release 4: closes the 2-node segment and 2 of the 3-node segment.
	if err := a.Release("sp", 4); err != nil {
		t.Fatal(err)
	}
	if a.Held("sp") != 1 {
		t.Errorf("Held = %d, want 1", a.Held("sp"))
	}
	a.CloseAll(7200, false)
	// Segments: 2 nodes [3600,7200) = 2h; 2 nodes [0,7200) = 4h;
	// 1 node [0,7200) = 2h. Total = 2+4+2 = 8 node-hours.
	if got := a.BilledNodeHours("sp"); got != 8 {
		t.Errorf("BilledNodeHours = %g, want 8", got)
	}
}

func TestReleaseErrors(t *testing.T) {
	a := NewAccountant(func() int64 { return 0 })
	a.Acquire("sp", 2)
	if err := a.Release("sp", 3); err == nil {
		t.Error("over-release succeeded")
	}
	if err := a.Release("sp", 0); err == nil {
		t.Error("zero release succeeded")
	}
	if err := a.Release("ghost", 1); err == nil {
		t.Error("release from unknown owner succeeded")
	}
}

func TestAcquireNonPositivePanics(t *testing.T) {
	a := NewAccountant(func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Error("Acquire(0) did not panic")
		}
	}()
	a.Acquire("sp", 0)
}

func TestAdjustmentCounters(t *testing.T) {
	c := &fakeClock{}
	a := NewAccountant(c.now)
	a.Acquire("sp", 10)
	c.t = 3600
	a.Acquire("sp", 5)
	c.t = 7200
	if err := a.Release("sp", 5); err != nil {
		t.Fatal(err)
	}
	if got := a.NodesAdjusted("sp"); got != 20 {
		t.Errorf("NodesAdjusted = %d, want 20 (10+5+5)", got)
	}
	if got := a.AdjustOps("sp"); got != 3 {
		t.Errorf("AdjustOps = %d, want 3", got)
	}
	a.CloseAll(10000, true)
	if got := a.NodesAdjusted("sp"); got != 30 {
		t.Errorf("NodesAdjusted after CloseAll(true) = %d, want 30", got)
	}
}

func TestCloseAllWithoutAdjustCount(t *testing.T) {
	c := &fakeClock{}
	a := NewAccountant(c.now)
	a.Acquire("dcs", 15)
	a.CloseAll(3600, false)
	if got := a.NodesAdjusted("dcs"); got != 15 {
		t.Errorf("NodesAdjusted = %d, want 15 (acquire only)", got)
	}
	if got := a.BilledNodeHours("dcs"); got != 15 {
		t.Errorf("BilledNodeHours = %g, want 15", got)
	}
}

func TestTotalsAcrossOwners(t *testing.T) {
	c := &fakeClock{}
	a := NewAccountant(c.now)
	a.Acquire("a", 1)
	a.Acquire("b", 2)
	c.t = 3600
	a.CloseAll(c.t, true)
	if got := a.TotalBilledNodeHours(); got != 3 {
		t.Errorf("TotalBilledNodeHours = %g, want 3", got)
	}
	if got := a.TotalNodesAdjusted(); got != 6 {
		t.Errorf("TotalNodesAdjusted = %d, want 6", got)
	}
	owners := a.Owners()
	if len(owners) != 2 || owners[0] != "a" || owners[1] != "b" {
		t.Errorf("Owners = %v, want [a b]", owners)
	}
}

func TestPeakNodes(t *testing.T) {
	c := &fakeClock{}
	a := NewAccountant(c.now)
	a.Acquire("a", 100)
	c.t = 1800
	a.Acquire("b", 50)
	c.t = 3600
	if err := a.Release("a", 100); err != nil {
		t.Fatal(err)
	}
	c.t = 4 * 3600
	a.CloseAll(c.t, false)
	// Hour 0: a=100 + b=50 -> 150. Hours 1-3: b=50.
	if got := a.PeakNodes(); got != 150 {
		t.Errorf("PeakNodes = %d, want 150", got)
	}
	hourly := a.HourlyNodes(c.t)
	want := []int{150, 50, 50, 50}
	if len(hourly) != len(want) {
		t.Fatalf("HourlyNodes = %v, want %v", hourly, want)
	}
	for i := range want {
		if hourly[i] != want[i] {
			t.Errorf("hour %d = %d, want %d", i, hourly[i], want[i])
		}
	}
}

func TestIntervalsSortedAndComplete(t *testing.T) {
	c := &fakeClock{}
	a := NewAccountant(c.now)
	c.t = 100
	a.Acquire("b", 2)
	c.t = 200
	a.Acquire("a", 1)
	c.t = 300
	a.CloseAll(c.t, false)
	ivs := a.Intervals()
	if len(ivs) != 2 {
		t.Fatalf("Intervals = %v, want 2 entries", ivs)
	}
	if ivs[0].Start != 100 || ivs[1].Start != 200 {
		t.Errorf("intervals unsorted: %v", ivs)
	}
	own := a.OwnerIntervals("b")
	if len(own) != 1 || own[0].Level != 2 {
		t.Errorf("OwnerIntervals(b) = %v", own)
	}
	if a.OwnerIntervals("ghost") != nil {
		t.Error("OwnerIntervals(ghost) != nil")
	}
}

func TestUnknownOwnerQueries(t *testing.T) {
	a := NewAccountant(func() int64 { return 0 })
	if a.BilledNodeHours("x") != 0 || a.ExactNodeHours("x") != 0 ||
		a.NodesAdjusted("x") != 0 || a.AdjustOps("x") != 0 || a.Held("x") != 0 {
		t.Error("unknown owner should report zeros")
	}
}

// Property: billed consumption is always >= exact consumption, and at most
// exact + one hour per lease segment.
func TestPropertyBillingBounds(t *testing.T) {
	f := func(ops []struct {
		Dt      uint16
		N       uint8
		Release bool
	}) bool {
		c := &fakeClock{}
		a := NewAccountant(c.now)
		segments := 0
		held := 0
		for _, op := range ops {
			c.t += int64(op.Dt)
			n := int(op.N%16) + 1
			if op.Release {
				if held >= n {
					if err := a.Release("o", n); err != nil {
						return false
					}
					held -= n
				}
			} else {
				a.Acquire("o", n)
				held += n
				segments++
			}
		}
		c.t += 10
		a.CloseAll(c.t, false)
		billed := a.BilledNodeHours("o")
		exact := a.ExactNodeHours("o")
		if billed < exact {
			return false
		}
		// Each acquire can split into at most N segments of 1 node, but
		// the rounding overhead is bounded by 1 hour per held node per
		// close; use a safe upper bound: exact + total nodes acquired.
		totalNodes := 0
		for _, op := range ops {
			if !op.Release {
				totalNodes += int(op.N%16) + 1
			}
		}
		return billed <= exact+float64(totalNodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: held nodes reported by the accountant always match a reference
// counter through any valid op sequence.
func TestPropertyHeldMatchesReference(t *testing.T) {
	f := func(ops []struct {
		Dt      uint8
		N       uint8
		Release bool
	}) bool {
		c := &fakeClock{}
		a := NewAccountant(c.now)
		held := 0
		for _, op := range ops {
			c.t += int64(op.Dt)
			n := int(op.N%8) + 1
			if op.Release && held >= n {
				if err := a.Release("o", n); err != nil {
					return false
				}
				held -= n
			} else if !op.Release {
				a.Acquire("o", n)
				held += n
			}
			if a.Held("o") != held {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestLeaseHandlesCloseTheirOwnBlock(t *testing.T) {
	c := &fakeClock{}
	a := NewAccountant(c.now)
	a.Acquire("sp", 4) // a runtime-environment block under the same owner
	first := a.AcquireLease("sp", 2)
	c.t = 3600
	second := a.AcquireLease("sp", 3)
	c.t = 2 * 3600
	// Closing the older lease leaves the newer one and the block open,
	// whatever the acquire order.
	if n, err := a.CloseLease(first); err != nil || n != 2 {
		t.Fatalf("CloseLease(first) = %d, %v; want 2, nil", n, err)
	}
	if _, err := a.CloseLease(first); err == nil {
		t.Error("second CloseLease of one lease succeeded")
	}
	if _, err := a.CloseLease(Lease{}); err == nil {
		t.Error("CloseLease of the zero Lease succeeded")
	}
	if a.Held("sp") != 7 {
		t.Errorf("Held = %d, want 7", a.Held("sp"))
	}
	// LIFO releases reach only blocks: the 3 leased nodes stay out of it.
	if err := a.Release("sp", 5); err == nil {
		t.Error("Release took leased nodes")
	}
	if err := a.Release("sp", 4); err != nil {
		t.Fatal(err)
	}
	c.t = 3 * 3600
	a.CloseAll(c.t, true)
	// first: 2 nodes x 2h; second: 3 nodes x 2h (closed by CloseAll);
	// block: 4 nodes x 2h.
	if got := a.BilledNodeHours("sp"); got != 4+6+8 {
		t.Errorf("BilledNodeHours = %g, want 18", got)
	}
	// Acquires 4+2+3, CloseLease 2, Release 4, CloseAll 3.
	if got := a.NodesAdjusted("sp"); got != 18 {
		t.Errorf("NodesAdjusted = %d, want 18", got)
	}
	if _, err := a.CloseLease(second); err == nil {
		t.Error("CloseLease after CloseAll succeeded")
	}
	if got := a.PeakNodes(); got != 9 {
		t.Errorf("PeakNodes = %d, want 9", got)
	}
}

// refSeg is a lease segment of the reference model in
// TestRunningPeaksMatchBucketMax.
type refSeg struct {
	start, end int64
	count      int
}

// refOwner is one owner in the reference model: its LIFO blocks, its open
// lease handles, every closed segment, and its adjustment count.
type refOwner struct {
	blocks   []refSeg
	leases   []Lease
	starts   []refSeg // start and count of leases[i]
	closed   []refSeg
	adjusted int
}

func (o *refOwner) blockNodes() int {
	n := 0
	for _, b := range o.blocks {
		n += b.count
	}
	return n
}

// Property: after CloseAll(h), the running peaks equal the maximum of
// stats.BucketMax's hourly buckets over the closed intervals, for the
// platform and for each owner, and billing and adjustments equal sums
// over a reference model's segments. Scripts mix LIFO blocks, releases
// spanning several blocks, lease handles, same-instant acquire/release
// pairs in both orders and zero-length leases.
func TestRunningPeaksMatchBucketMax(t *testing.T) {
	owners := []string{"a", "b", "c"}
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := &fakeClock{}
		a := NewAccountant(c.now)
		ref := map[string]*refOwner{}
		for _, o := range owners {
			ref[o] = &refOwner{}
		}
		acquire := func(o string, n int) {
			a.Acquire(o, n)
			ref[o].blocks = append(ref[o].blocks, refSeg{start: c.t, count: n})
			ref[o].adjusted += n
		}
		release := func(o string, n int) {
			if err := a.Release(o, n); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			r := ref[o]
			r.adjusted += n
			for n > 0 {
				top := &r.blocks[len(r.blocks)-1]
				take := min(top.count, n)
				r.closed = append(r.closed, refSeg{start: top.start, end: c.t, count: take})
				top.count -= take
				n -= take
				if top.count == 0 {
					r.blocks = r.blocks[:len(r.blocks)-1]
				}
			}
		}
		lease := func(o string, n int) {
			r := ref[o]
			r.leases = append(r.leases, a.AcquireLease(o, n))
			r.starts = append(r.starts, refSeg{start: c.t, count: n})
			r.adjusted += n
		}
		closeLease := func(o string, i int) {
			r := ref[o]
			n, err := a.CloseLease(r.leases[i])
			if err != nil || n != r.starts[i].count {
				t.Fatalf("seed %d: CloseLease = %d, %v; want %d", seed, n, err, r.starts[i].count)
			}
			r.closed = append(r.closed, refSeg{start: r.starts[i].start, end: c.t, count: n})
			r.adjusted += n
			last := len(r.leases) - 1
			r.leases[i], r.starts[i] = r.leases[last], r.starts[last]
			r.leases, r.starts = r.leases[:last], r.starts[:last]
		}
		steps := 5 + rng.Intn(60)
		for s := 0; s < steps; s++ {
			switch rng.Intn(4) {
			case 0: // the clock stays: the next change shares the instant
			case 1:
				c.t += int64(1 + rng.Intn(600))
			default:
				c.t += int64(rng.Intn(3)) * HourSeconds / 2
			}
			o := owners[rng.Intn(len(owners))]
			r := ref[o]
			n := 1 + rng.Intn(8)
			switch op := rng.Intn(8); {
			case op == 0:
				acquire(o, n)
			case op == 1 && r.blockNodes() > 0:
				// May span several blocks.
				release(o, 1+rng.Intn(r.blockNodes()))
			case op == 2:
				lease(o, n)
			case op == 3 && len(r.leases) > 0:
				closeLease(o, rng.Intn(len(r.leases)))
			case op == 4:
				// Acquire then release at one instant: a zero-length
				// block, on top of whatever the instant already holds.
				acquire(o, n)
				release(o, n)
			case op == 5:
				// A zero-length lease.
				lease(o, n)
				closeLease(o, len(r.leases)-1)
			case op == 6 && len(r.leases) > 0:
				// Release then acquire at one instant: a swap.
				closeLease(o, rng.Intn(len(r.leases)))
				lease(o, n)
			case op == 7 && r.blockNodes() > 0:
				release(o, 1+rng.Intn(r.blockNodes()))
				acquire(o, n)
			default:
				lease(o, n)
			}
		}
		h := c.t + int64(rng.Intn(3))*int64(rng.Intn(5400))
		countAdjust := rng.Intn(2) == 0
		a.CloseAll(h, countAdjust)
		c.t = h

		if got, want := a.PeakNodes(), stats.MaxInt(stats.BucketMax(a.Intervals(), h, HourSeconds)); got != want {
			t.Fatalf("seed %d: PeakNodes = %d, BucketMax over Intervals = %d", seed, got, want)
		}
		for _, o := range owners {
			r := ref[o]
			for _, b := range r.blocks {
				if b.count > 0 {
					r.closed = append(r.closed, refSeg{start: b.start, end: h, count: b.count})
				}
			}
			for _, s := range r.starts {
				r.closed = append(r.closed, refSeg{start: s.start, end: h, count: s.count})
			}
			var billedSec int64
			adjusted := r.adjusted
			for _, s := range r.closed {
				billedSec += billed(leaseSeg{start: s.start, end: s.end, count: s.count})
			}
			if countAdjust {
				adjusted += r.blockNodes()
				for _, s := range r.starts {
					adjusted += s.count
				}
			}
			if got, want := a.OwnerPeakNodes(o), stats.MaxInt(stats.BucketMax(a.OwnerIntervals(o), h, HourSeconds)); got != want {
				t.Fatalf("seed %d: OwnerPeakNodes(%s) = %d, BucketMax over OwnerIntervals = %d", seed, o, got, want)
			}
			if got, want := a.BilledNodeHours(o), float64(billedSec)/float64(HourSeconds); got != want {
				t.Fatalf("seed %d: BilledNodeHours(%s) = %g, segments sum to %g", seed, o, got, want)
			}
			if got := a.NodesAdjusted(o); got != adjusted {
				t.Fatalf("seed %d: NodesAdjusted(%s) = %d, want %d", seed, o, got, adjusted)
			}
			if a.Held(o) != 0 {
				t.Fatalf("seed %d: Held(%s) = %d after CloseAll", seed, o, a.Held(o))
			}
		}
	}
}
