package scenario

import (
	"os"
	"reflect"
	"testing"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestRunParallelMatchesSerial pins the runner's determinism contract:
// any worker count produces the identical report.
func TestRunParallelMatchesSerial(t *testing.T) {
	spec, err := ParseBytes([]byte(`{"name":"det","days":2,"seed":9,
		"systems":["DCS","SSP","DawningCloud"],
		"providers":[
			{"name":"a","count":2,"source":{"kind":"synth","model":"nasa"}},
			{"name":"m","fixed_nodes":64,
			 "source":{"kind":"workflow","generator":"montage","tasks":300,"submit_at":7200}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Base, parallel.Base) {
		t.Error("parallel base results differ from serial")
	}
	if !reflect.DeepEqual(serial.Scale, parallel.Scale) ||
		!reflect.DeepEqual(serial.Grid, parallel.Grid) {
		t.Error("parallel sweep results differ from serial")
	}
	if serial.Render() != parallel.Render() {
		t.Error("rendered reports differ between worker counts")
	}
}

// TestSWFSourceCompiles exercises the third source kind end to end: an
// SWF trace written to disk becomes a provider workload.
func TestSWFSourceCompiles(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/t.swf"
	swfSrc := "; tiny trace\n" +
		"1 0 -1 600 4 -1 -1 4 600 -1 1 -1 -1 -1 -1 -1 -1 -1\n" +
		"2 3600 -1 1200 8 -1 -1 8 1200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
	if err := writeFile(path, swfSrc); err != nil {
		t.Fatal(err)
	}
	s, err := ParseBytes([]byte(`{"name":"swf-test","days":1,"systems":["DCS","DawningCloud"],
		"providers":[{"name":"trace","source":{"kind":"swf","path":"` + path + `"},
		"policy":{"b":4,"r":1.2}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads[0].Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(c.Workloads[0].Jobs))
	}
	if c.Workloads[0].FixedNodes != 8 {
		t.Errorf("derived fixed nodes = %d, want 8 (largest job)", c.Workloads[0].FixedNodes)
	}
	if _, err := c.Run(2); err != nil {
		t.Fatalf("run: %v", err)
	}
}
