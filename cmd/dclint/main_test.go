package main

import "testing"

// The exit-code contract CI depends on: 0 clean, 1 findings, 2 usage
// errors. Fixture directories must come back dirty for every analyzer
// — a fixture that stops failing means the analyzer stopped looking.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"list", []string{"-list"}, 0},
		{"unknown analyzer", []string{"-only", "nosuch"}, 2},
		{"detrand fixture", []string{"./internal/lint/testdata/src/detrand/a"}, 1},
		{"walltime fixture", []string{"./internal/lint/testdata/src/internal/sim"}, 1},
		{"mapiter fixture", []string{"./internal/lint/testdata/src/mapiter/a"}, 1},
		{"ctxfirst fixture", []string{"./internal/lint/testdata/src/ctxfirst/a"}, 1},
		{"malformed directives fixture", []string{"./internal/lint/testdata/src/suppress/bad"}, 1},
		{"suppressed fixture is clean", []string{"./internal/lint/testdata/src/suppress/ok"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.args); got != tc.want {
				t.Errorf("dclint %v: exit %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}
