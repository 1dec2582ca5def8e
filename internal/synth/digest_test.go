package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/job"
)

// digestCase names one generated trace pinned in
// testdata/trace_digests.json.
type digestCase struct {
	Model  string `json:"model"`
	Seed   int64  `json:"seed"`
	Days   int    `json:"days"`
	Jobs   int    `json:"jobs"`
	SHA256 string `json:"sha256"`
}

// model builds the case's model the way the scenario compiler does for
// its synth sources.
func (c digestCase) model(t *testing.T) *Model {
	t.Helper()
	switch c.Model {
	case "nasa":
		m := NASAiPSC(c.Seed)
		m.Days = c.Days
		return m
	case "blue":
		return SDSCBlueWindowed(c.Seed, c.Days)
	case "million":
		return MillionTaskWindowed(c.Seed, c.Days)
	}
	t.Fatalf("unknown model %q", c.Model)
	return nil
}

// traceDigest hashes every job's ID, Class, Submit, Runtime, Nodes and
// Name, in order: two traces share a digest only if they list the same
// jobs in the same order.
func traceDigest(jobs []job.Job) string {
	h := sha256.New()
	var buf [48]byte
	for i := range jobs {
		j := &jobs[i]
		binary.LittleEndian.PutUint64(buf[0:], uint64(j.ID))
		binary.LittleEndian.PutUint64(buf[8:], uint64(j.Class))
		binary.LittleEndian.PutUint64(buf[16:], uint64(j.Submit))
		binary.LittleEndian.PutUint64(buf[24:], uint64(j.Runtime))
		binary.LittleEndian.PutUint64(buf[32:], uint64(j.Nodes))
		binary.LittleEndian.PutUint64(buf[40:], uint64(len(j.Name)))
		h.Write(buf[:])
		h.Write([]byte(j.Name))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratedTraceDigests pins generated traces job for job: the
// million-task model over its full two weeks (1,059,360 jobs at seed 42)
// and over two days, NASA and BLUE at the paper-baseline seeds, and
// shortened NASA and BLUE windows. Any change to the RNG draw order,
// calibration, sort or naming shows up as a different digest. The full
// million-task trace takes seconds, so -short skips it.
func TestGeneratedTraceDigests(t *testing.T) {
	data, err := os.ReadFile("testdata/trace_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []digestCase
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(cases) == 0 {
		t.Fatal("golden file holds no traces")
	}
	for _, c := range cases {
		m := c.model(t)
		t.Run(fmt.Sprintf("%s/seed%d/%dd", m.Name, c.Seed, c.Days), func(t *testing.T) {
			if testing.Short() && c.Jobs > 500_000 {
				t.Skip("full million-task trace skipped in -short mode")
			}
			jobs, err := m.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != c.Jobs {
				t.Errorf("generated %d jobs, want %d", len(jobs), c.Jobs)
			}
			if got := traceDigest(jobs); got != c.SHA256 {
				t.Errorf("trace digest %s, want %s", got, c.SHA256)
			}
		})
	}
}
