package stream

import (
	"errors"
	"io"
	"testing"

	"repro/internal/job"
)

func liveJob(id int) job.Job {
	return job.Job{ID: id, Class: job.HTC, Submit: int64(id), Runtime: 60, Nodes: 1}
}

func TestLiveSourceFullAndClosed(t *testing.T) {
	s := NewLiveSource(2, 8)
	for id := 1; id <= 2; id++ {
		if err := s.TryPush(liveJob(id)); err != nil {
			t.Fatalf("push %d: %v", id, err)
		}
	}
	if err := s.TryPush(liveJob(3)); !errors.Is(err, ErrFull) {
		t.Fatalf("push at capacity: %v, want ErrFull", err)
	}
	if n := s.Pushed(); n != 2 {
		t.Fatalf("Pushed after a refused push = %d, want 2", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.TryPush(liveJob(3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after Close: %v, want ErrClosed", err)
	}
	for id := 1; id <= 2; id++ {
		if j, err := s.Next(); err != nil || j.ID != id {
			t.Fatalf("Next = job %d, %v; want job %d", j.ID, err, id)
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("Next after the drained end = %v, want io.EOF", err)
	}
}

// TestLiveSourceFailDropsBuffered pins that a failed source hands out no
// buffered job, whether or not its end record arrived first: a cancelled
// lane must stop feeding its run. Producers learn of the failure too:
// pushes and end records get the first Fail's error.
func TestLiveSourceFailDropsBuffered(t *testing.T) {
	for _, closeFirst := range []bool{false, true} {
		s := NewLiveSource(0, 8)
		for id := 1; id <= 10; id++ {
			if err := s.TryPush(liveJob(id)); err != nil {
				t.Fatal(err)
			}
		}
		if closeFirst {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
		cancelled := errors.New("run cancelled")
		s.Fail(cancelled)
		s.Fail(errors.New("a later failure"))
		for i := 0; i < 100; i++ {
			if j, err := s.Next(); err != cancelled {
				t.Fatalf("close first %v: Next #%d after Fail = job %d, %v; want the first Fail's error",
					closeFirst, i+1, j.ID, err)
			}
		}
		if err := s.TryPush(liveJob(11)); err != cancelled {
			t.Errorf("close first %v: push after Fail = %v, want the first Fail's error", closeFirst, err)
		}
		if err := s.Close(); err != cancelled {
			t.Errorf("close first %v: Close after Fail = %v, want the first Fail's error", closeFirst, err)
		}
	}
}
