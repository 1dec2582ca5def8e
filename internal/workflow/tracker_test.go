package workflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/job"
)

// The reference below is the map-keyed trigger monitor tre.MTCServer
// ran before the Tracker replaced it, copied verbatim but for its
// server: the validation loops, the per-submission namespacing and the
// release loop are unchanged, and pushing to the scheduling queue
// became a call to ready.

// taskKey identifies a task across workflow submissions: task IDs only need
// to be unique within one workflow, so the server namespaces them by a
// per-submission sequence number.
type taskKey struct {
	wf, id int
}

type refMonitor struct {
	ready func(*job.Job)

	wfSeq      int
	keyOf      map[*job.Job]taskKey // active tasks -> namespaced key
	waiting    map[taskKey]*job.Job // tasks with unmet dependencies
	unmet      map[taskKey]int      // remaining unmet dependency counts
	dependents map[taskKey][]taskKey
}

func newRefMonitor(ready func(*job.Job)) *refMonitor {
	return &refMonitor{
		ready:      ready,
		keyOf:      make(map[*job.Job]taskKey),
		waiting:    make(map[taskKey]*job.Job),
		unmet:      make(map[taskKey]int),
		dependents: make(map[taskKey][]taskKey),
	}
}

func (m *refMonitor) SubmitWorkflow(tasks []*job.Job) error {
	ids := make(map[int]bool, len(tasks))
	for _, t := range tasks {
		if ids[t.ID] {
			return fmt.Errorf("duplicate task ID %d in workflow", t.ID)
		}
		ids[t.ID] = true
	}
	for _, t := range tasks {
		for _, dep := range t.Deps {
			if !ids[dep] {
				return fmt.Errorf("task %d depends on %d, absent from the workflow", t.ID, dep)
			}
		}
	}
	m.wfSeq++
	wf := m.wfSeq
	for _, t := range tasks {
		key := taskKey{wf: wf, id: t.ID}
		m.keyOf[t] = key
		if len(t.Deps) == 0 {
			m.ready(t)
			continue
		}
		m.waiting[key] = t
		m.unmet[key] = len(t.Deps)
		for _, dep := range t.Deps {
			depKey := taskKey{wf: wf, id: dep}
			m.dependents[depKey] = append(m.dependents[depKey], key)
		}
	}
	return nil
}

func (m *refMonitor) triggerMonitor(j *job.Job) {
	key, ok := m.keyOf[j]
	if !ok {
		return
	}
	delete(m.keyOf, j)
	for _, depKey := range m.dependents[key] {
		m.unmet[depKey]--
		if m.unmet[depKey] == 0 {
			t := m.waiting[depKey]
			delete(m.waiting, depKey)
			delete(m.unmet, depKey)
			m.ready(t)
		}
	}
	delete(m.dependents, key)
}

func (m *refMonitor) WaitingTasks() int { return len(m.waiting) }

// trackerCases is how many seeded cases a plain go test replays.
const trackerCases = 500

// FuzzTrackerMatchesReference is the property that the Tracker hands
// out exactly the tasks the reference monitor does, in the same order,
// and reports the same waiting count after every step. Each case adds
// 1-3 random workflows to one tracker, between completions of randomly
// chosen ready tasks. Task IDs repeat across workflows, dependencies
// repeat within a task and may form cycles, and some workflows are
// malformed (a repeated ID or a dependency outside the workflow), which
// both must refuse without changing state. A plain go test replays the
// trackerCases seeded cases; -fuzz hunts further seeds.
func FuzzTrackerMatchesReference(f *testing.F) {
	for seed := int64(0); seed < trackerCases; seed++ {
		f.Add(seed)
	}
	f.Fuzz(checkTrackerMatchesReference)
}

func checkTrackerMatchesReference(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var got, want []*job.Job
	var tr Tracker
	ref := newRefMonitor(func(j *job.Job) { want = append(want, j) })
	push := func(j *job.Job) { got = append(got, j) }

	pending := 1 + rng.Intn(3)
	var ready, done []*job.Job
	for step := 0; pending > 0 || len(ready) > 0; step++ {
		got, want = got[:0], want[:0]
		switch {
		case pending > 0 && (len(ready) == 0 || rng.Intn(3) == 0):
			pending--
			tasks := randomWorkflow(rng)
			errGot, errWant := tr.Add(tasks, push), ref.SubmitWorkflow(tasks)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("seed %d step %d: Add = %v, reference = %v", seed, step, errGot, errWant)
			}
		case len(done) > 0 && rng.Intn(8) == 0:
			// A repeated completion releases nothing.
			j := done[rng.Intn(len(done))]
			tr.Done(j, push)
			ref.triggerMonitor(j)
		default:
			k := rng.Intn(len(ready))
			j := ready[k]
			ready = append(ready[:k], ready[k+1:]...)
			done = append(done, j)
			tr.Done(j, push)
			ref.triggerMonitor(j)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d step %d: released %v, reference %v", seed, step, ids(got), ids(want))
		}
		if w, rw := tr.Waiting(), ref.WaitingTasks(); w != rw {
			t.Fatalf("seed %d step %d: Waiting = %d, reference %d", seed, step, w, rw)
		}
		ready = append(ready, got...)
	}
}

// randomWorkflow draws a workflow of 1-12 tasks whose IDs come from a
// small range, so they repeat across workflows. One workflow in eight
// repeats an ID or depends on a task outside it.
func randomWorkflow(rng *rand.Rand) []*job.Job {
	n := 1 + rng.Intn(12)
	base := rng.Intn(4)
	tasks := make([]*job.Job, n)
	for i, id := range rng.Perm(n) {
		tasks[i] = &job.Job{ID: base + id, Nodes: 1, Class: job.MTC}
	}
	for _, tk := range tasks {
		for d := rng.Intn(4); d > 0; d-- {
			tk.Deps = append(tk.Deps, tasks[rng.Intn(n)].ID)
		}
	}
	switch rng.Intn(16) {
	case 0:
		tasks[rng.Intn(n)].ID = tasks[rng.Intn(n)].ID
	case 1:
		tk := tasks[rng.Intn(n)]
		tk.Deps = append(tk.Deps, base+n)
	}
	return tasks
}

func ids(jobs []*job.Job) []int {
	out := make([]int, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

// chain returns tasks a <- b <- c: each depends on the one before.
func chain(first int) []*job.Job {
	return []*job.Job{
		{ID: first, Nodes: 1},
		{ID: first + 1, Nodes: 1, Deps: []int{first}},
		{ID: first + 2, Nodes: 1, Deps: []int{first + 1}},
	}
}

func TestTrackerRefusesMalformedWorkflowUntouched(t *testing.T) {
	var tr Tracker
	push := func(*job.Job) { t.Error("a refused workflow released a task") }
	dup := chain(1)
	dup[2].ID = 1
	dangling := chain(1)
	dangling[0].Deps = []int{9}
	for _, tc := range []struct {
		tasks []*job.Job
		want  string
	}{
		{dup, "duplicate task ID 1"},
		{dangling, "task 1 depends on 9, absent from the workflow"},
	} {
		err := tr.Add(tc.tasks, push)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Add = %v, want %q", err, tc.want)
		}
		tr.Done(tc.tasks[0], push) // not held: releases nothing
	}
	if tr.Waiting() != 0 {
		t.Errorf("Waiting = %d after refusals, want 0", tr.Waiting())
	}
}

func TestTrackerNeverWritesJobs(t *testing.T) {
	d, err := Montage(MontageConfig{Seed: 3, Images: 12})
	if err != nil {
		t.Fatal(err)
	}
	jobs := d.Jobs(0)
	before := job.CloneAll(jobs)
	ptrs := make([]*job.Job, len(jobs))
	for i := range jobs {
		ptrs[i] = &jobs[i]
	}
	var tr Tracker
	var ready []*job.Job
	push := func(j *job.Job) { ready = append(ready, j) }
	if err := tr.Add(ptrs, push); err != nil {
		t.Fatal(err)
	}
	released := 0
	for len(ready) > 0 {
		j := ready[0]
		ready = ready[1:]
		released++
		tr.Done(j, push)
	}
	if released != len(jobs) || tr.Waiting() != 0 {
		t.Errorf("released %d of %d tasks, %d waiting", released, len(jobs), tr.Waiting())
	}
	if !reflect.DeepEqual(jobs, before) {
		t.Error("the tracker wrote a job it holds")
	}
}
