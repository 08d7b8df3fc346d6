// Command ctmsvet runs the repository's custom static-analysis suite
// (see DESIGN.md §7), internal/analyzers: one Analyzer type run through
// one Pass, in four tiers — syntactic (determinism, exhaustive), typed
// (mbuflife), interprocedural (shardowned, seedflow, barrier) and
// dimensional (dim). It is the `make lint` step of `make ci`.
//
// The -analyzers selection decides what runs. The syntactic tier parses
// the module and validates every //ctmsvet:allow directive on every
// run; the other three tiers share one go/types load of the module,
// paid only when the selection is empty or names one of their
// analyzers, so a syntactic-only selection (make lint-fast) stays a
// pure-AST pass.
//
// Usage:
//
//	ctmsvet                     # analyze the enclosing module, all tiers
//	ctmsvet -root DIR           # analyze the module rooted at DIR
//	ctmsvet -analyzers a,b,c    # run only the named analyzers
//	ctmsvet -analyzers determinism,exhaustive  # syntactic tier only (make lint-fast)
//	ctmsvet -json               # machine-readable diagnostics on stdout
//	ctmsvet -out findings.json  # also write the JSON artifact to a file
//	ctmsvet -list               # print the analyzer names
//
// Exit status: 0 with no findings, 1 when any diagnostic survives
// suppression, 2 on a usage or load error. Each finding prints as
// file:line:col: analyzer: message, so CI output is directly
// actionable. A finding can be suppressed in place with
//
//	//ctmsvet:allow <analyzer> <reason>
//
// where the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analyzers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body, factored for the CLI contract test: parse
// args, run the selected tiers, emit, and return the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ctmsvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		root         = fs.String("root", "", "module root to analyze (default: walk up from the working directory)")
		jsonMode     = fs.Bool("json", false, "emit diagnostics as a JSON array")
		analyzerList = fs.String("analyzers", "", "comma-separated analyzers to run (default: all; see -list)")
		outPath      = fs.String("out", "", "write the findings JSON artifact to this file")
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
	// Diagnostics carry the paths the loader saw, and the typed load
	// absolutizes its root: absolutize it here too, so every finding
	// prints an absolute path whichever tier found it.
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}

	var only []string
	for _, n := range strings.Split(*analyzerList, ",") {
		if n = strings.TrimSpace(n); n != "" {
			only = append(only, n)
		}
	}

	diags, err := analyzers.RunRepo(dir, only...)
	if err != nil {
		fmt.Fprintf(stderr, "ctmsvet: %v\n", err)
		return 2
	}
	if needsTypes(only) {
		// The type-checked tiers share one module load: the source
		// importer pass dominates their cost.
		mod, err := analyzers.LoadTypedModule(dir)
		if err != nil {
			fmt.Fprintf(stderr, "ctmsvet: typed pass: %v\n", err)
			return 2
		}
		tdiags, err := analyzers.RunModule(mod, only...)
		if err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 2
		}
		diags = analyzers.MergeDiagnostics(diags, tdiags)
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

// needsTypes reports whether a selection runs any type-checked tier.
// RunRepo has already rejected unknown names.
func needsTypes(only []string) bool {
	as, _ := analyzers.Select(only)
	for _, a := range as {
		if a.Tier != analyzers.TierSyntactic {
			return true
		}
	}
	return false
}
