package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the selection goldens under testdata/golden")

// goldenSelections are the -analyzers values TestCLIGoldenSelections
// pins over testdata/violations: the full run, every analyzer alone, and
// mixes that cross tiers.
var goldenSelections = []string{
	"",
	"determinism", "exhaustive",
	"mbuflife",
	"shardowned", "seedflow", "barrier",
	"dim",
	"determinism,exhaustive", "seedflow,barrier", "mbuflife,dim",
}

// TestCLIGoldenSelections pins how selection and scope behave across
// the tiers. testdata/violations plants findings for every analyzer,
// some inside their reporting scope and some outside it (cmd/tool, the
// root package), plus malformed allow, crossing and unit directives;
// each selection's -json output, with paths made root-relative, must
// match its golden byte for byte. Refresh with -update.
func TestCLIGoldenSelections(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "violations"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range goldenSelections {
		name := strings.ReplaceAll(sel, ",", "+")
		if name == "" {
			name = "all"
		}
		t.Run(name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, "-root", root, "-json", "-analyzers", sel)
			got := strings.ReplaceAll(stdout, root+string(filepath.Separator), "")
			path := filepath.Join("testdata", "golden", name+".json")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("-analyzers %q output drifted from %s\ngot:\n%s\nwant:\n%s", sel, path, got, want)
			}
			wantCode := 1
			if strings.TrimSpace(got) == "[]" {
				wantCode = 0
			}
			if code != wantCode {
				t.Errorf("exit %d, want %d\nstderr:\n%s", code, wantCode, stderr)
			}
		})
	}
}
