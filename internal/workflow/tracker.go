package workflow

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/job"
)

// Tracker is the trigger monitor of an MTC runtime environment (paper
// Section 3.1.2): it holds the tasks of the workflows added to it, whose
// IDs need only be unique within a workflow, and releases each task once
// every task it depends on is done. It never writes the jobs it holds,
// so runs may share them. The zero Tracker is ready to use.
type Tracker struct {
	slot  map[*job.Job]int32 // held task -> its slot
	tasks []*job.Job         // by slot
	unmet []int32            // by slot: dependencies not done; -1 once done
	off   []int32            // slot s's dependents are deps[off[s]:off[s+1]]
	deps  []int32            // dependent slots, in workflow order per slot
}

// Add holds one workflow's tasks, resolving their dependencies to slots
// once, and hands its roots to ready in task order. It first checks that
// the workflow's task IDs are unique and that every dependency names one
// of its tasks. A task on a dependency cycle is never released.
func (t *Tracker) Add(tasks []*job.Job, ready func(*job.Job)) error {
	n, m := len(tasks), 0
	byID := make([]int32, n) // task positions in ID order
	for i, j := range tasks {
		byID[i] = int32(i)
		m += len(j.Deps)
	}
	slices.SortFunc(byID, func(a, b int32) int { return cmp.Compare(tasks[a].ID, tasks[b].ID) })
	for k := 1; k < n; k++ {
		if id := tasks[byID[k]].ID; id == tasks[byID[k-1]].ID {
			return fmt.Errorf("duplicate task ID %d in workflow", id)
		}
	}
	// Resolve each dependency to its task's position p; count in next[p+1].
	edges, next := make([]int32, 0, m), make([]int32, n+1)
	for _, j := range tasks {
		for _, d := range j.Deps {
			k, ok := slices.BinarySearchFunc(byID, d, func(p int32, id int) int { return cmp.Compare(tasks[p].ID, id) })
			if !ok {
				return fmt.Errorf("task %d depends on %d, absent from the workflow", j.ID, d)
			}
			edges = append(edges, byID[k])
			next[byID[k]+1]++
		}
	}
	if t.slot == nil {
		t.slot, t.off = make(map[*job.Job]int32, n), []int32{0}
	}
	base, d0 := int32(len(t.tasks)), int32(len(t.deps))
	t.tasks = append(t.tasks, tasks...)
	t.unmet, t.off = slices.Grow(t.unmet, n), slices.Grow(t.off, n)
	for i := 1; i <= n; i++ {
		next[i] += next[i-1]
		t.off = append(t.off, d0+next[i])
	}
	// next[p] is where p's next dependent goes, filled in workflow order.
	t.deps = slices.Grow(t.deps, m)[:int(d0)+m]
	for i, j := range tasks {
		t.slot[j] = base + int32(i)
		t.unmet = append(t.unmet, int32(len(j.Deps)))
		for _, p := range edges[:len(j.Deps)] {
			t.deps[d0+next[p]] = base + int32(i)
			next[p]++
		}
		edges = edges[len(j.Deps):]
	}
	for _, j := range tasks {
		if len(j.Deps) == 0 {
			ready(j)
		}
	}
	return nil
}

// Done records j's completion and hands the dependents it was the last
// unmet dependency of to ready, in workflow order. A job the tracker does
// not hold, or has seen done, releases nothing.
func (t *Tracker) Done(j *job.Job, ready func(*job.Job)) {
	s, ok := t.slot[j]
	if !ok || t.unmet[s] < 0 {
		return
	}
	t.unmet[s] = -1
	for _, d := range t.deps[t.off[s]:t.off[s+1]] {
		t.unmet[d]--
		if t.unmet[d] == 0 {
			ready(t.tasks[d])
		}
	}
}

// Waiting reports the held tasks still blocked on a dependency.
func (t *Tracker) Waiting() int {
	n := 0
	for _, u := range t.unmet {
		if u > 0 {
			n++
		}
	}
	return n
}
