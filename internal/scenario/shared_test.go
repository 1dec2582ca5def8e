package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"repro/internal/systems"
)

// workloadsDigest hashes every field of every workload and job, Deps
// included, so any write a run makes to the compiled inputs changes it.
func workloadsDigest(wls []systems.Workload) string {
	h := sha256.New()
	num := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	str := func(s string) {
		num(int64(len(s)))
		h.Write([]byte(s))
	}
	for i := range wls {
		w := &wls[i]
		str(w.Name)
		num(int64(w.Class), int64(w.FixedNodes), int64(len(w.Jobs)),
			int64(w.Params.InitialNodes), int64(math.Float64bits(w.Params.ThresholdRatio)),
			w.Params.ScanInterval, w.Params.IdleCheckInterval)
		for k := range w.Jobs {
			j := &w.Jobs[k]
			num(int64(j.ID), int64(j.Class), j.Submit, j.Runtime, int64(j.Nodes), int64(len(j.Deps)))
			for _, d := range j.Deps {
				num(int64(d))
			}
			str(j.Name)
			str(j.Workflow)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCellsShareCompiledWorkloads pins what lets cells run over the
// compiled workloads without copying them: base, scale and grid cells of
// every system, eight at a time, leave every job and workload field as
// compiled, and the report equals a serial run's. Under -race it also
// catches a runner that writes to a job another cell is reading.
func TestCellsShareCompiledWorkloads(t *testing.T) {
	s, err := ParseBytes([]byte(`{"name":"shared","days":2,"seed":11,
		"systems":["DCS","SSP","DRP","DawningCloud"],
		"providers":[
			{"name":"nasa","count":2,"source":{"kind":"synth","model":"nasa"}},
			{"name":"blue","source":{"kind":"synth","model":"blue"}},
			{"name":"mtc","source":{"kind":"workflow","generator":"montage","tasks":200,"submit_at":3600}}],
		"sweep":{"scale":true,"grid":{"provider":"nasa-02","b":[10,30],"r":[1.2,2]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	before := workloadsDigest(c.Workloads)
	got, err := c.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if after := workloadsDigest(c.Workloads); after != before {
		t.Fatalf("running the cells changed the compiled workloads: digest %s, compiled %s", after, before)
	}
	if len(got.Scale) != 4 || len(got.Grid) != 4 {
		t.Fatalf("ran %d scale points and %d grid cells, want 4 and 4", len(got.Scale), len(got.Grid))
	}

	serial, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report at 8 workers differs from the serial run:\n%s\nserial:\n%s", got.Render(), want.Render())
	}
}
