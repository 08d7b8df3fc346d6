// Command ctmsvet runs the repository's custom static-analysis suite
// (see DESIGN.md §7): the syntactic tier — determinism, exhaustive —
// the typed tier — mbuflife, locking, hotpath — the interprocedural
// tier — shardowned, seedflow, barrier — and the dimensional-inference
// tier — dim — of internal/analyzers. It is the `make lint` step of
// `make ci`.
//
// The -analyzers selection decides which tiers run. The three
// type-checked tiers share one go/types load of the module, paid only
// when the selection is empty or names one of their analyzers, so a
// syntactic-only selection (make lint-fast) stays a pure-AST pass.
//
// Usage:
//
//	ctmsvet                     # analyze the enclosing module, all tiers
//	ctmsvet -root DIR           # analyze the module rooted at DIR
//	ctmsvet -analyzers a,b,c    # run only the named analyzers
//	ctmsvet -analyzers determinism,exhaustive  # syntactic tier only (make lint-fast)
//	ctmsvet -changed HEAD       # report only findings in files differing from a git ref
//	ctmsvet -json               # machine-readable diagnostics on stdout
//	ctmsvet -out findings.json  # also write the JSON artifact to a file
//	ctmsvet -baseline accepted.json  # fail only on findings not in the baseline
//
// Exit status: 0 with no findings, 1 when any diagnostic survives
// suppression (and the baseline, if one is given), 2 on a usage or load
// error. Each finding prints as file:line:col: analyzer: message, so CI
// output is directly actionable. A finding can be suppressed in place
// with
//
//	//ctmsvet:allow <analyzer> <reason>
//
// where the reason is mandatory. The -baseline file is a prior -json or
// -out artifact: its findings are matched by analyzer, root-relative
// file and message (line-insensitive), so a tree with accepted debt
// still gates on anything new.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body, factored for the CLI contract test: parse
// args, run the selected tiers, subtract the baseline, emit, and return
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ctmsvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root         = fs.String("root", "", "module root to analyze (default: walk up from the working directory)")
		jsonMode     = fs.Bool("json", false, "emit diagnostics as a JSON array")
		analyzerList = fs.String("analyzers", "", "comma-separated analyzers to run (default: all; see -list)")
		baselinePath = fs.String("baseline", "", "accepted-findings JSON (a prior -json/-out artifact); only uncovered findings fail")
		outPath      = fs.String("out", "", "write the findings JSON artifact to this file")
		changedRef   = fs.String("changed", "", "report only findings in files differing from this git ref (plus untracked files)")
		list         = fs.Bool("list", false, "print the analyzer names and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(analyzers.AnalyzerNames(), "\n"))
		return 0
	}

	dir := *root
	if dir == "" {
		var err error
		dir, err = analyzers.FindModuleRoot(".")
		if err != nil {
			fmt.Fprintf(stderr, "ctmsvet: %v\n", err)
			return 2
		}
	}
	// Diagnostics carry the paths the loader saw; absolutize the root so
	// -changed's git paths compare equal to them.
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}

	var only []string
	for _, n := range strings.Split(*analyzerList, ",") {
		if n = strings.TrimSpace(n); n != "" {
			only = append(only, n)
		}
	}

	var changed map[string]bool
	if *changedRef != "" {
		var err error
		changed, err = changedFiles(dir, *changedRef)
		if err != nil {
			fmt.Fprintf(stderr, "ctmsvet: %v\n", err)
			return 2
		}
		if len(changed) == 0 {
			// Nothing differs from the ref: the findings set is empty
			// by construction, so skip the analysis entirely — this is
			// what makes `make lint-fast` sub-second on a clean tree.
			if *jsonMode {
				fmt.Fprintln(stdout, "[]")
			}
			if *outPath != "" {
				if err := os.WriteFile(*outPath, []byte("[]\n"), 0o644); err != nil {
					fmt.Fprintf(stderr, "ctmsvet: %v\n", err)
					return 2
				}
			}
			return 0
		}
	}

	diags, err := analyzers.RunRepo(dir, only...)
	if err != nil {
		fmt.Fprintf(stderr, "ctmsvet: %v\n", err)
		return 2
	}
	if needsTypes(only) {
		// All type-checked tiers share one module load: the source
		// importer pass dominates their cost.
		mod, err := analyzers.LoadTypedModule(dir)
		if err != nil {
			fmt.Fprintf(stderr, "ctmsvet: typed pass: %v\n", err)
			return 2
		}
		for _, tier := range []func(*analyzers.Module, ...string) ([]analyzers.Diagnostic, error){
			analyzers.RunModuleTyped, analyzers.RunModuleInter, analyzers.RunModuleDim,
		} {
			tdiags, err := tier(mod, only...)
			if err != nil {
				fmt.Fprintf(stderr, "%v\n", err)
				return 2
			}
			diags = analyzers.MergeDiagnostics(diags, tdiags)
		}
	}
	if changed != nil {
		var kept []analyzers.Diagnostic
		for _, d := range diags {
			if changed[d.File] {
				kept = append(kept, d)
			}
		}
		diags = kept
	}
	if *baselinePath != "" {
		b, err := analyzers.LoadBaseline(*baselinePath, dir)
		if err != nil {
			fmt.Fprintf(stderr, "ctmsvet: %v\n", err)
			return 2
		}
		diags = b.Filter(diags, dir)
	}

	if *outPath != "" {
		artifact, err := analyzers.MarshalJSONDiagnostics(diags)
		if err != nil {
			fmt.Fprintf(stderr, "ctmsvet: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*outPath, append(artifact, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "ctmsvet: %v\n", err)
			return 2
		}
	}

	if *jsonMode {
		out, err := analyzers.MarshalJSONDiagnostics(diags)
		if err != nil {
			fmt.Fprintf(stderr, "ctmsvet: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonMode {
			fmt.Fprintf(stderr, "ctmsvet: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// needsTypes reports whether a selection runs any type-checked tier: an
// empty selection runs every tier, and any name outside the syntactic
// tier belongs to one of them.
func needsTypes(only []string) bool {
	if len(only) == 0 {
		return true
	}
	syntactic := make(map[string]bool)
	for _, a := range analyzers.All {
		syntactic[a.Name] = true
	}
	for _, n := range only {
		if !syntactic[n] {
			return true
		}
	}
	return false
}

// changedFiles returns the set of .go files under root that differ from
// the git ref — modified/added relative to the ref plus untracked files
// — as absolute paths, for filtering diagnostics. Analysis still runs
// over the whole module (an interprocedural finding in a changed file
// can depend on unchanged code), only the report is restricted.
//
// The diff runs with --name-status -M so renames are followed: an R row
// lists old path then new, and the findings live in the new one.
// (--name-only would contribute only the pre-rename path, silently
// skipping every finding in a renamed file.)
func changedFiles(root, ref string) (map[string]bool, error) {
	top, err := gitOut(root, "rev-parse", "--show-toplevel")
	if err != nil {
		return nil, fmt.Errorf("-changed %s: %v", ref, err)
	}
	diff, err := gitOut(root, "diff", "--name-status", "-M", ref)
	if err != nil {
		return nil, fmt.Errorf("-changed %s: %v", ref, err)
	}
	untracked, err := gitOut(root, "ls-files", "--others", "--exclude-standard")
	if err != nil {
		return nil, fmt.Errorf("-changed %s: %v", ref, err)
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	changed := make(map[string]bool)
	add := func(line string) {
		line = strings.TrimSpace(line)
		if line == "" || !strings.HasSuffix(line, ".go") {
			return
		}
		abs := filepath.Join(top, filepath.FromSlash(line))
		// Only files inside the analyzed module matter.
		if rel, err := filepath.Rel(absRoot, abs); err != nil || strings.HasPrefix(rel, "..") {
			return
		}
		changed[abs] = true
	}
	for _, line := range strings.Split(diff, "\n") {
		// --name-status rows are status<TAB>path, with rename/copy rows
		// status<TAB>old<TAB>new; the file that exists now is the last
		// column.
		cols := strings.Split(line, "\t")
		if len(cols) < 2 {
			continue
		}
		status := strings.TrimSpace(cols[0])
		if strings.HasPrefix(status, "D") {
			continue // a deleted file has no findings to report
		}
		add(cols[len(cols)-1])
	}
	for _, line := range strings.Split(untracked, "\n") {
		add(line)
	}
	return changed, nil
}

// gitOut runs one git subcommand in dir and returns trimmed stdout.
func gitOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", append([]string{"-C", dir}, args...)...)
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			return "", fmt.Errorf("git %s: %s", strings.Join(args, " "), strings.TrimSpace(string(ee.Stderr)))
		}
		return "", fmt.Errorf("git %s: %v", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
