package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/synth"
)

// FuzzParseScenario hunts the spec parser, the untrusted edge of dcserve
// and dcscen, for two properties: an accepted spec has an accounting
// window in [1, synth.MaxDays] days with a positive horizon, and an
// accepted spec marshalled back to JSON parses to a deep-equal spec, so
// defaults are idempotent and every field round-trips (the run service
// persists specs this way).
func FuzzParseScenario(f *testing.F) {
	for _, name := range Names() {
		src, err := BuiltinJSON(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(src))
	}
	for _, days := range []int{-1, 0, 1, synth.MaxDays, synth.MaxDays + 1, 1 << 30, horizonOverflowDays} {
		f.Add([]byte(fmt.Sprintf(`{"name":"d","days":%d,
			"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}]}`, days)))
	}
	f.Add([]byte(`{"name":"g","systems":["DawningCloud"],
		"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}],
		"sweep":{"grid":{"provider":"p","b":[10,20,10],"r":[1.2,1.2]}}}`))
	f.Add([]byte(`{"name":"f","systems":["DawningCloud"],
		"providers":[{"name":"p","source":{"kind":"synth","model":"nasa"}}],
		"federation":{"providers":[]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseBytes(data)
		if err != nil {
			return
		}
		if s.Days < 1 || s.Days > synth.MaxDays || s.Horizon() <= 0 {
			t.Fatalf("accepted days=%d with horizon %d", s.Days, s.Horizon())
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		back, err := ParseBytes(out)
		if err != nil {
			t.Fatalf("re-parse of an accepted spec failed: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the spec:\n in: %+v\nout: %+v\n%s", s, back, out)
		}
	})
}
