package job

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestClassString(t *testing.T) {
	tests := []struct {
		c    Class
		want string
	}{
		{HTC, "HTC"},
		{MTC, "MTC"},
		{Class(7), "Class(7)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("Class(%d).String() = %q, want %q", int(tt.c), got, tt.want)
		}
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		j       Job
		wantErr bool
	}{
		{"valid", Job{ID: 1, Nodes: 4, Runtime: 100}, false},
		{"zero nodes", Job{ID: 1, Nodes: 0, Runtime: 100}, true},
		{"negative nodes", Job{ID: 1, Nodes: -2, Runtime: 100}, true},
		{"negative runtime", Job{ID: 1, Nodes: 1, Runtime: -1}, true},
		{"negative submit", Job{ID: 1, Nodes: 1, Submit: -5}, true},
		{"self dependency", Job{ID: 1, Nodes: 1, Deps: []int{1}}, true},
		{"zero runtime ok", Job{ID: 1, Nodes: 1, Runtime: 0}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.j.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestValidateAll(t *testing.T) {
	good := []Job{
		{ID: 1, Nodes: 1, Runtime: 10},
		{ID: 2, Nodes: 2, Runtime: 20, Deps: []int{1}},
	}
	if err := ValidateAll(good); err != nil {
		t.Errorf("ValidateAll(good) = %v, want nil", err)
	}
	dup := []Job{{ID: 1, Nodes: 1}, {ID: 1, Nodes: 1}}
	if err := ValidateAll(dup); err == nil {
		t.Error("ValidateAll with duplicate IDs succeeded")
	}
	dangling := []Job{{ID: 1, Nodes: 1, Deps: []int{99}}}
	if err := ValidateAll(dangling); err == nil {
		t.Error("ValidateAll with dangling dependency succeeded")
	}
}

// validateAllMap is ValidateAll with a map for every workload: the
// oracle the table tests and FuzzValidateAll compare against.
func validateAllMap(jobs []Job) error {
	seen := make(map[int]bool, len(jobs))
	for i := range jobs {
		if err := jobs[i].Validate(); err != nil {
			return err
		}
		if seen[jobs[i].ID] {
			return fmt.Errorf("duplicate job ID %d", jobs[i].ID)
		}
		seen[jobs[i].ID] = true
	}
	for i := range jobs {
		for _, d := range jobs[i].Deps {
			if !seen[d] {
				return fmt.Errorf("job %d: dependency %d not in workload", jobs[i].ID, d)
			}
		}
	}
	return nil
}

// sameError reports whether two errors are both nil or carry the same text.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// TestValidateAllMatchesMapOracle runs ValidateAll over dense, sparse,
// negative and extreme ID shapes and checks it returns the map oracle's
// first error (or nil), and that the bitset serves exactly the dense
// shapes.
func TestValidateAllMatchesMapOracle(t *testing.T) {
	const lo, hi = math.MinInt, math.MaxInt
	dense := make([]Job, 100)
	for i := range dense {
		dense[i] = Job{ID: 100 - i, Nodes: 1}
		if i > 0 {
			dense[i].Deps = []int{100}
		}
	}
	// 10 jobs whose IDs span 649 values, past the table's 640.
	wide := make([]Job, 10)
	for i := range wide {
		wide[i] = Job{ID: i * 72, Nodes: 1}
	}
	tests := []struct {
		name  string
		jobs  []Job
		table bool
		want  string
	}{
		{"empty", nil, false, ""},
		{"single", []Job{{ID: 7, Nodes: 1}}, true, ""},
		{"dense reversed with deps", dense, true, ""},
		{"dense duplicate", []Job{{ID: 1, Nodes: 1}, {ID: 3, Nodes: 1}, {ID: 2, Nodes: 1}, {ID: 3, Nodes: 1}}, true,
			"duplicate job ID 3"},
		{"negative dense", []Job{{ID: -3, Nodes: 1}, {ID: -1, Nodes: 1, Deps: []int{-3}}, {ID: -2, Nodes: 1, Deps: []int{-4}}}, true,
			"job -2: dependency -4 not in workload"},
		{"span 63 per job", []Job{{ID: 0, Nodes: 1}, {ID: 127, Nodes: 1, Deps: []int{0}}}, true, ""},
		{"span 64 per job", []Job{{ID: 0, Nodes: 1}, {ID: 128, Nodes: 1, Deps: []int{64}}}, false,
			"job 128: dependency 64 not in workload"},
		{"wide", wide, false, ""},
		{"sparse duplicate", []Job{{ID: 1 << 40, Nodes: 1}, {ID: 5, Nodes: 1}, {ID: 1 << 40, Nodes: 1}}, false,
			"duplicate job ID 1099511627776"},
		{"near MinInt", []Job{{ID: lo + 2, Nodes: 1}, {ID: lo, Nodes: 1, Deps: []int{lo + 2}}, {ID: lo + 1, Nodes: 1, Deps: []int{hi}}}, true,
			fmt.Sprintf("job %d: dependency %d not in workload", lo+1, hi)},
		{"near MaxInt", []Job{{ID: hi, Nodes: 1, Deps: []int{hi - 1}}, {ID: hi - 1, Nodes: 1, Deps: []int{lo}}}, true,
			fmt.Sprintf("job %d: dependency %d not in workload", hi-1, lo)},
		{"MinInt and MaxInt", []Job{{ID: lo, Nodes: 1, Deps: []int{hi}}, {ID: hi, Nodes: 1, Deps: []int{lo}}}, false, ""},
		{"dep one below the range", []Job{{ID: 10, Nodes: 1}, {ID: 11, Nodes: 1, Deps: []int{9}}}, true,
			"job 11: dependency 9 not in workload"},
		{"dep one above the range", []Job{{ID: 10, Nodes: 1, Deps: []int{12}}, {ID: 11, Nodes: 1}}, true,
			"job 10: dependency 12 not in workload"},
		{"dep far outside the range", []Job{{ID: 10, Nodes: 1, Deps: []int{10 + 64}}, {ID: 11, Nodes: 1}}, true,
			"job 10: dependency 74 not in workload"},
		{"invalid job before the first duplicate", []Job{{ID: 1, Nodes: 1}, {ID: 2, Nodes: 0}, {ID: 1, Nodes: 1}}, true,
			"job 2: nodes 0 < 1"},
		{"invalid job after the first duplicate", []Job{{ID: 1, Nodes: 1}, {ID: 1, Nodes: 1}, {ID: 2, Runtime: -1, Nodes: 1}}, true,
			"duplicate job ID 1"},
		{"self dependency before a dangling one", []Job{{ID: 1, Nodes: 1, Deps: []int{5}}, {ID: 2, Nodes: 1, Deps: []int{2}}}, true,
			"job 2: depends on itself"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, want := ValidateAll(tt.jobs), validateAllMap(tt.jobs)
			if !sameError(got, want) {
				t.Fatalf("ValidateAll = %v, map oracle = %v", got, want)
			}
			msg := ""
			if got != nil {
				msg = got.Error()
			}
			if msg != tt.want {
				t.Errorf("ValidateAll = %v, want %q", got, tt.want)
			}
			if s := newIDSet(tt.jobs); (s.bits != nil) != tt.table {
				t.Errorf("bitset used = %v, want %v", s.bits != nil, tt.table)
			}
		})
	}
}

// FuzzValidateAll builds a workload from the fuzzer's bytes, three per
// job, and checks ValidateAll returns the map oracle's first error (or
// nil) for it. IDs are base + int8 offset × stride with wrapping
// arithmetic, so base and stride pick dense, sparse, negative,
// duplicated and MinInt/MaxInt-straddling shapes; each job's flag byte
// makes it invalid (zero nodes, negative runtime) or gives it a
// dependency inside or outside the ID range, or on itself.
func FuzzValidateAll(f *testing.F) {
	f.Add(int64(1), int64(1), []byte{0, 0, 0, 1, 2, 0, 2, 2, 1})
	f.Add(int64(1), int64(1), []byte{0, 0, 0, 1, 0, 0, 1, 1, 0, 2, 0, 0})
	f.Add(int64(-50), int64(1), []byte{5, 0, 0, 9, 2, 200, 3, 4, 1})
	f.Add(int64(7), int64(1)<<40, []byte{0, 0, 0, 1, 2, 0, 2, 2, 3, 1, 0, 0})
	f.Add(int64(math.MinInt64)+3, int64(1), []byte{0, 0, 0, 0xfd, 2, 0x80, 1, 4, 0x7f, 2, 0, 0})
	f.Add(int64(math.MaxInt64)-3, int64(1), []byte{0, 0, 0, 3, 2, 0x7f, 0xff, 6, 4, 1, 0, 0})
	f.Add(int64(0), int64(math.MaxInt64/4), []byte{0x80, 0, 0, 0x7f, 2, 0x80, 1, 0, 0})
	f.Add(int64(1), int64(1), []byte{0, 0, 0, 1, 1, 0, 0, 0, 0})
	f.Add(int64(1), int64(1), []byte{0, 0, 0, 0, 0, 0, 1, 8, 0})
	f.Add(int64(1), int64(3), []byte{0, 4, 0, 1, 4, 0xff, 2, 2, 9})
	f.Fuzz(func(t *testing.T, base, stride int64, data []byte) {
		id := func(off byte) int { return int(base) + int(int8(off))*int(stride) }
		var jobs []Job
		for i := 0; i+2 < len(data); i += 3 {
			j := Job{ID: id(data[i]), Nodes: 1, Runtime: 1}
			flags, dep := data[i+1], data[i+2]
			if flags&1 != 0 {
				j.Nodes = 0
			}
			if flags&8 != 0 {
				j.Runtime = -1
			}
			switch flags >> 1 & 3 {
			case 1: // another job's ID, or one outside the range
				j.Deps = []int{id(dep)}
			case 2: // near this job's own ID, itself included
				j.Deps = []int{j.ID + int(int8(dep))}
			case 3:
				j.Deps = []int{id(dep), j.ID + int(int8(dep))}
			}
			jobs = append(jobs, j)
		}
		if got, want := ValidateAll(jobs), validateAllMap(jobs); !sameError(got, want) {
			t.Fatalf("ValidateAll = %v, map oracle = %v", got, want)
		}
	})
}

func TestNodeSeconds(t *testing.T) {
	j := Job{Nodes: 8, Runtime: 3600}
	if got := j.NodeSeconds(); got != 28800 {
		t.Errorf("NodeSeconds() = %d, want 28800", got)
	}
}

func TestSortBySubmit(t *testing.T) {
	jobs := []Job{
		{ID: 3, Submit: 100, Nodes: 1},
		{ID: 1, Submit: 50, Nodes: 1},
		{ID: 2, Submit: 100, Nodes: 1},
	}
	SortBySubmit(jobs)
	wantIDs := []int{1, 2, 3}
	for i, want := range wantIDs {
		if jobs[i].ID != want {
			t.Errorf("jobs[%d].ID = %d, want %d", i, jobs[i].ID, want)
		}
	}
}

func TestSpan(t *testing.T) {
	jobs := []Job{
		{ID: 1, Submit: 100, Runtime: 50, Nodes: 1},
		{ID: 2, Submit: 20, Runtime: 10, Nodes: 1},
		{ID: 3, Submit: 80, Runtime: 500, Nodes: 1},
	}
	start, end := Span(jobs)
	if start != 20 {
		t.Errorf("start = %d, want 20", start)
	}
	if end != 580 {
		t.Errorf("end = %d, want 580", end)
	}
	if s, e := Span(nil); s != 0 || e != 0 {
		t.Errorf("Span(nil) = %d,%d, want 0,0", s, e)
	}
}

func TestTotalNodeSecondsAndMaxNodes(t *testing.T) {
	jobs := []Job{
		{ID: 1, Nodes: 2, Runtime: 10},
		{ID: 2, Nodes: 5, Runtime: 4},
	}
	if got := TotalNodeSeconds(jobs); got != 40 {
		t.Errorf("TotalNodeSeconds = %d, want 40", got)
	}
	if got := MaxNodes(jobs); got != 5 {
		t.Errorf("MaxNodes = %d, want 5", got)
	}
	if got := MaxNodes(nil); got != 0 {
		t.Errorf("MaxNodes(nil) = %d, want 0", got)
	}
}

func TestQueueFIFO(t *testing.T) {
	var q Queue
	a := &Job{ID: 1, Nodes: 2}
	b := &Job{ID: 2, Nodes: 3}
	c := &Job{ID: 3, Nodes: 4}
	q.Push(a)
	q.Push(b)
	q.Push(c)
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	if q.At(0) != a || q.At(1) != b || q.At(2) != c {
		t.Error("queue order does not match push order")
	}
	got := q.Remove(1)
	if got != b {
		t.Errorf("Remove(1) = job %d, want job 2", got.ID)
	}
	if q.Len() != 2 || q.At(0) != a || q.At(1) != c {
		t.Error("order broken after Remove")
	}
}

func TestQueueDemands(t *testing.T) {
	var q Queue
	q.Push(&Job{ID: 1, Nodes: 2})
	q.Push(&Job{ID: 2, Nodes: 7})
	q.Push(&Job{ID: 3, Nodes: 3})
	if got := q.AccumulatedDemand(); got != 12 {
		t.Errorf("AccumulatedDemand = %d, want 12", got)
	}
	if got := q.LargestDemand(); got != 7 {
		t.Errorf("LargestDemand = %d, want 7", got)
	}
}

func TestQueueEmptyDemands(t *testing.T) {
	var q Queue
	if q.AccumulatedDemand() != 0 || q.LargestDemand() != 0 {
		t.Error("empty queue demands should be 0")
	}
}

func TestQueueRemoveAll(t *testing.T) {
	var q Queue
	for i := 1; i <= 5; i++ {
		q.Push(&Job{ID: i, Nodes: 1})
	}
	q.RemoveAll([]int{0, 2, 4})
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	if q.At(0).ID != 2 || q.At(1).ID != 4 {
		t.Errorf("remaining = %d,%d, want 2,4", q.At(0).ID, q.At(1).ID)
	}
	q.RemoveAll(nil)
	if q.Len() != 2 {
		t.Error("RemoveAll(nil) changed the queue")
	}
}

func TestQueueSnapshotIsCopy(t *testing.T) {
	var q Queue
	q.Push(&Job{ID: 1, Nodes: 1})
	snap := q.Snapshot()
	q.Push(&Job{ID: 2, Nodes: 1})
	if len(snap) != 1 {
		t.Error("snapshot mutated by later Push")
	}
}

// Property: accumulated demand equals the sum of individual demands for any
// sequence of pushes and removals from the front.
func TestPropertyQueueDemandConsistency(t *testing.T) {
	f := func(sizes []uint8) bool {
		var q Queue
		sum := 0
		for i, s := range sizes {
			n := int(s%32) + 1
			q.Push(&Job{ID: i, Nodes: n})
			sum += n
		}
		for q.Len() > 3 {
			sum -= q.At(0).Nodes
			q.Remove(0)
		}
		return q.AccumulatedDemand() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: SortBySubmit yields non-decreasing submit times and preserves
// the multiset of IDs.
func TestPropertySortBySubmit(t *testing.T) {
	f := func(submits []uint16) bool {
		jobs := make([]Job, len(submits))
		idSet := make(map[int]bool, len(submits))
		for i, s := range submits {
			jobs[i] = Job{ID: i, Submit: int64(s), Nodes: 1}
			idSet[i] = true
		}
		SortBySubmit(jobs)
		for i := 1; i < len(jobs); i++ {
			if jobs[i-1].Submit > jobs[i].Submit {
				return false
			}
		}
		for i := range jobs {
			if !idSet[jobs[i].ID] {
				return false
			}
			delete(idSet, jobs[i].ID)
		}
		return len(idSet) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
