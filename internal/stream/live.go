package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/job"
)

// ErrFull reports that a live source's bounded buffer is full; the
// producer should back off and retry (dcserve translates it into a 503
// with Retry-After).
var ErrFull = errors.New("stream: live buffer full")

// ErrClosed reports a push after the end-of-stream record.
var ErrClosed = errors.New("stream: live source closed")

// DefaultLiveBuffer is the bounded buffer size of a live source.
const DefaultLiveBuffer = 1024

// LiveSource is a channel-backed Source for externally fed runs: HTTP
// handlers (or any producer goroutine) push validated jobs in, the
// Feeder pulls them out on the simulation side. The buffer is bounded —
// that is the backpressure contract: the virtual clock only advances
// past a refill round once the producer has supplied every record inside
// the round's horizon, so a slow producer gates simulated time instead
// of growing memory.
//
// Next blocks until a record, Close or Fail arrives; because the engine
// cannot interrupt a blocked event callback, drivers of live runs must
// wire cancellation to Fail (see Abort).
type LiveSource struct {
	ch    chan job.Job
	done  chan struct{}
	nodes int // the lane's fixed RE size: wider tasks could never run

	mu         sync.Mutex
	closed     bool
	failed     bool
	failErr    error
	seeded     bool
	lastSubmit int64
	pushed     int
}

// NewLiveSource creates a live source with a bounded buffer of the given
// capacity (DefaultLiveBuffer when <= 0) for a provider whose fixed
// runtime environment has the given number of nodes; it refuses wider
// tasks, as compiling a materialized workload does.
func NewLiveSource(buffer, fixedNodes int) *LiveSource {
	if buffer <= 0 {
		buffer = DefaultLiveBuffer
	}
	return &LiveSource{
		ch:    make(chan job.Job, buffer),
		done:  make(chan struct{}),
		nodes: fixedNodes,
	}
}

// admit validates a record on the producer side, so ingestion errors
// surface synchronously to the client instead of killing the run.
func (s *LiveSource) admit(j *job.Job) error {
	if s.failed {
		return s.failErr
	}
	if s.closed {
		return ErrClosed
	}
	if err := validate(j, s.lastSubmit, s.seeded); err != nil {
		return err
	}
	if j.Nodes > s.nodes {
		return fmt.Errorf("job %d: %d nodes exceed fixed RE size %d", j.ID, j.Nodes, s.nodes)
	}
	return nil
}

// TryPush appends one job without blocking: ErrFull when the buffer is
// full, the failure error after Fail, ErrClosed after Close, a
// validation error for bad records.
func (s *LiveSource) TryPush(j job.Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admit(&j); err != nil {
		return err
	}
	select {
	case s.ch <- j:
		s.seeded, s.lastSubmit = true, j.Submit
		s.pushed++
		return nil
	default:
		return ErrFull
	}
}

// Push appends one job, blocking while the buffer is full until the
// consumer drains it, the source fails, or ctx is done.
func (s *LiveSource) Push(ctx context.Context, j job.Job) error {
	s.mu.Lock()
	if err := s.admit(&j); err != nil {
		s.mu.Unlock()
		return err
	}
	// Hold the admission ordering under the lock: a second producer
	// blocks in Push rather than interleaving out-of-order submits.
	defer s.mu.Unlock()
	select {
	case s.ch <- j:
		s.seeded, s.lastSubmit = true, j.Submit
		s.pushed++
		return nil
	case <-s.done:
		return s.failErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close marks the end of the stream: buffered jobs still drain, then
// Next returns io.EOF. Closing twice is an error, and so is closing a
// failed source (its failure error).
func (s *LiveSource) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return s.failErr
	}
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	close(s.ch)
	return nil
}

// Fail aborts the stream: every later Next returns err, dropping any
// buffered jobs. It is how cancellation reaches a Feeder blocked in
// Next. Fail after Close still fails the source, so cancelling a run
// after its end record stops it; a second Fail keeps the first error.
func (s *LiveSource) Fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return
	}
	if err == nil {
		err = errors.New("stream: live source aborted")
	}
	s.failed, s.failErr = true, err
	close(s.done)
}

// Pushed reports how many jobs have been accepted so far.
func (s *LiveSource) Pushed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pushed
}

// Closed reports whether the end-of-stream record has been received.
func (s *LiveSource) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Next implements Source. It blocks until the producer supplies a
// record, closes the stream (io.EOF) or fails it.
func (s *LiveSource) Next() (job.Job, error) {
	// A failed source must not hand out buffered jobs, and a select with
	// both channels ready picks one at random: check done first.
	select {
	case <-s.done:
		return job.Job{}, s.failErr
	default:
	}
	select {
	case j, ok := <-s.ch:
		if !ok {
			return job.Job{}, io.EOF
		}
		return j, nil
	case <-s.done:
		return job.Job{}, s.failErr
	}
}

// Feed is a named set of live sources for one run — one per live
// provider lane — shared between the ingestion endpoint (producer side)
// and the run's compiled workloads (consumer side).
type Feed struct {
	mu      sync.Mutex
	sources map[string]*LiveSource
	order   []string
}

// NewFeed creates an empty feed.
func NewFeed() *Feed {
	return &Feed{sources: make(map[string]*LiveSource)}
}

// Add creates and registers the live source for one named lane (see
// NewLiveSource).
func (f *Feed) Add(name string, buffer, fixedNodes int) (*LiveSource, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.sources[name]; ok {
		return nil, fmt.Errorf("stream: duplicate live lane %q", name)
	}
	s := NewLiveSource(buffer, fixedNodes)
	f.sources[name] = s
	f.order = append(f.order, name)
	return s, nil
}

// Get returns the named lane's source. With an empty name and exactly
// one lane, that lane is returned — the common single-feed case needs no
// routing field in the wire records.
func (f *Feed) Get(name string) (*LiveSource, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if name == "" {
		if len(f.order) == 1 {
			return f.sources[f.order[0]], nil
		}
		return nil, fmt.Errorf("stream: feed has %d lanes, record must name its workload", len(f.order))
	}
	s, ok := f.sources[name]
	if !ok {
		return nil, fmt.Errorf("stream: no live lane %q", name)
	}
	return s, nil
}

// Names lists the feed's lanes in registration order.
func (f *Feed) Names() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.order))
	copy(out, f.order)
	return out
}

// Closed reports whether every lane has received its end-of-stream
// record.
func (f *Feed) Closed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.sources {
		if !s.Closed() {
			return false
		}
	}
	return true
}

// CloseAll ends every lane that is still open.
func (f *Feed) CloseAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.sources {
		_ = s.Close() // ErrClosed on an already-ended lane is fine
	}
}

// FailAll aborts every lane, unblocking a Feeder waiting on any of them.
func (f *Feed) FailAll(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.sources {
		s.Fail(err)
	}
}
