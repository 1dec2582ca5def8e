// Package stream stands in for the streamed execution path (fixture
// import path internal/stream): records are scheduled on the virtual
// clock, so both the walltime and detrand invariants apply — a host
// clock read or a process-global RNG draw here would desynchronize a
// streamed run from its materialized twin.
package stream

import (
	"math/rand"
	"time"
)

// pullDeadline is the tempting mistake this fixture pins: bounding a
// lane pull with host time instead of failing the feed explicitly.
func pullDeadline() bool {
	start := time.Now()                    // want `time\.Now reads the wall clock inside simulation-path package internal/stream`
	return time.Since(start) > time.Second // want `time\.Since reads the wall clock`
}

func backoff() {
	time.Sleep(10 * time.Millisecond) // want `time\.Sleep reads the wall clock`
	<-time.After(time.Millisecond)    // want `time\.After reads the wall clock`
}

// jitterRecord injects "realistic" arrival jitter from the global RNG —
// forbidden twice over: nondeterministic and wall-seeded.
func jitterRecord(submit int64) int64 {
	return submit + rand.Int63n(30) // want `rand\.Int63n draws from the process-global source`
}

func wallSeededGen() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `rand\.NewSource seeded from the wall clock` `time\.Now reads the wall clock`
}

// seededGen is the required construction and stays silent: an explicit
// generator from an explicit seed, exactly like stream.Gen.
func seededGen(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Durations and the virtual-time arithmetic they parameterize are pure
// values and remain allowed.
func strideSeconds(d time.Duration) int64 { return int64(d / time.Second) }
