package analyzers

import (
	"strings"
	"testing"
)

// FuzzAllowDirective pins parseAllowDirective's contract as a total
// function over arbitrary comment text: it never panics, it only
// accepts text carrying the //ctmsvet:allow prefix, the analyzer token
// it returns contains no spaces, and the reason comes back trimmed.
// The suppression machinery and the malformed-directive diagnostics
// both trust these properties.
func FuzzAllowDirective(f *testing.F) {
	f.Add("//ctmsvet:allow determinism seeded fixture clock")
	f.Add("//ctmsvet:allow units")
	f.Add("//ctmsvet:allow")
	f.Add("//ctmsvet:allowx")
	f.Add("//ctmsvet:allow  dim   reason with   spaces  ")
	f.Add("// ctmsvet:allow dim leading space disqualifies")
	f.Add("//ctmsvet:enum")
	f.Add("/*ctmsvet:allow block*/")
	f.Add("")
	f.Add("//ctmsvet:allow\tmbuflife tab separated")
	f.Add("//ctmsvet:allow dim nbsp reason")

	f.Add("//ctmsvet:allow shardowned worker spawn is the ownership transfer")
	f.Add("//ctmsvet:allow seedflow replay harness reuses the compiled seed")
	f.Add("//ctmsvet:allow barrier peek only, no message moves")
	f.Add("//ctmsvet:shardowned")
	f.Add("//ctmsvet:crossing push trailing text")

	f.Fuzz(func(t *testing.T, text string) {
		analyzer, reason, ok := parseAllowDirective(text)
		if !ok {
			if analyzer != "" || reason != "" {
				t.Fatalf("rejected input returned non-empty parts: %q %q", analyzer, reason)
			}
			if strings.HasPrefix(text, directivePrefix) {
				t.Fatalf("input with the directive prefix was rejected: %q", text)
			}
			return
		}
		if !strings.HasPrefix(text, directivePrefix) {
			t.Fatalf("accepted input without the directive prefix: %q", text)
		}
		if strings.ContainsRune(analyzer, ' ') {
			t.Fatalf("analyzer token contains a space: %q (from %q)", analyzer, text)
		}
		if trimmed := strings.TrimSpace(reason); trimmed != reason {
			t.Fatalf("reason not trimmed: %q (from %q)", reason, text)
		}
		// An empty analyzer with a non-empty reason would mean the
		// directive's first token was swallowed.
		if analyzer == "" && reason != "" {
			t.Fatalf("empty analyzer but reason %q (from %q)", reason, text)
		}
		// The analyzer token is the directive's first field: stripping
		// ASCII space from it must be a no-op.
		if strings.TrimFunc(analyzer, func(r rune) bool { return r == ' ' }) != analyzer {
			t.Fatalf("analyzer has surrounding spaces: %q", analyzer)
		}
	})
}

// FuzzUnitDirective pins the dim tier's parsing stack as total over
// arbitrary comment text: parseUnitDirective never panics and only
// accepts text carrying the //ctmsvet:unit prefix; ParseDim never
// panics on whatever expression the directive yields; and any dimension
// ParseDim does accept survives a String round-trip, so the dimensions
// echoed in diagnostics can be pasted back into directives verbatim.
func FuzzUnitDirective(f *testing.F) {
	f.Add("//ctmsvet:unit bit/s")
	f.Add("//ctmsvet:unit s/byte cost")
	f.Add("//ctmsvet:unit bit/s ringBits")
	f.Add("//ctmsvet:unit byte result")
	f.Add("//ctmsvet:unit s")
	f.Add("//ctmsvet:unit 1")
	f.Add("//ctmsvet:unit hz")
	f.Add("//ctmsvet:unit byte^3/s^2")
	f.Add("//ctmsvet:unit bit/s smoothed over a window")
	f.Add("//ctmsvet:unit")
	f.Add("//ctmsvet:unit bit/")
	f.Add("//ctmsvet:unit /s")
	f.Add("//ctmsvet:unit blip")
	f.Add("//ctmsvet:unit s^0")
	f.Add("//ctmsvet:unit s^10")
	f.Add("//ctmsvet:unit 1^2")
	f.Add("//ctmsvet:unitx bit")
	f.Add("// ctmsvet:unit bit leading space disqualifies")
	f.Add("//ctmsvet:allow units not a unit directive")
	f.Add("/*ctmsvet:unit block*/")
	f.Add("")
	f.Add("//ctmsvet:unit\tbit/s\ttab separated")

	f.Fuzz(func(t *testing.T, text string) {
		dimExpr, target, extra, ok := parseUnitDirective(text)
		if !ok {
			if dimExpr != "" || target != "" || extra {
				t.Fatalf("rejected input returned non-empty parts: %q %q %v", dimExpr, target, extra)
			}
			if strings.HasPrefix(text, unitDirectivePrefix) {
				t.Fatalf("input with the unit prefix was rejected: %q", text)
			}
			return
		}
		if !strings.HasPrefix(text, unitDirectivePrefix) {
			t.Fatalf("accepted input without the unit prefix: %q", text)
		}
		for _, tok := range []string{dimExpr, target} {
			if strings.ContainsAny(tok, " \t") {
				t.Fatalf("token contains whitespace: %q (from %q)", tok, text)
			}
		}
		if dimExpr == "" && (target != "" || extra) {
			t.Fatalf("empty dimension but target %q extra %v (from %q)", target, extra, text)
		}
		// ParseDim must be total over whatever expression the directive
		// carries, and accepted dimensions must round-trip through
		// String so diagnostics quote reusable annotations.
		d, err := ParseDim(dimExpr)
		if err != nil {
			return
		}
		rendered := d.String()
		back, err := ParseDim(rendered)
		if err != nil {
			t.Fatalf("ParseDim(%q) accepted but its rendering %q did not parse: %v", dimExpr, rendered, err)
		}
		if back != d {
			t.Fatalf("round-trip changed the dimension: %q -> %q", dimExpr, rendered)
		}
	})
}

// FuzzCrossingDirective pins parseCrossingDirective's contract the same
// way: total over arbitrary text, accepts exactly the //ctmsvet:crossing
// prefix, the role token carries no spaces, the reason comes back
// trimmed. World.validateDirectives trusts these properties when it
// turns malformed directives into findings instead of panics.
func FuzzCrossingDirective(f *testing.F) {
	f.Add("//ctmsvet:crossing push single-writer enqueue, deliverAt past the floor")
	f.Add("//ctmsvet:crossing drain runs only in the barrier step")
	f.Add("//ctmsvet:crossing peek end-of-run accounting")
	f.Add("//ctmsvet:crossing")
	f.Add("//ctmsvet:crossing push")
	f.Add("//ctmsvet:crossing teleport sideways")
	f.Add("//ctmsvet:crossingx")
	f.Add("// ctmsvet:crossing push leading space disqualifies")
	f.Add("//ctmsvet:shardowned")
	f.Add("//ctmsvet:allow shardowned not a crossing")
	f.Add("/*ctmsvet:crossing block*/")
	f.Add("")
	f.Add("//ctmsvet:crossing\tpush tab separated")

	f.Fuzz(func(t *testing.T, text string) {
		role, reason, ok := parseCrossingDirective(text)
		if !ok {
			if role != "" || reason != "" {
				t.Fatalf("rejected input returned non-empty parts: %q %q", role, reason)
			}
			if strings.HasPrefix(text, crossingPrefix) {
				t.Fatalf("input with the crossing prefix was rejected: %q", text)
			}
			return
		}
		if !strings.HasPrefix(text, crossingPrefix) {
			t.Fatalf("accepted input without the crossing prefix: %q", text)
		}
		if strings.ContainsRune(role, ' ') {
			t.Fatalf("role token contains a space: %q (from %q)", role, text)
		}
		if trimmed := strings.TrimSpace(reason); trimmed != reason {
			t.Fatalf("reason not trimmed: %q (from %q)", reason, text)
		}
		if role == "" && reason != "" {
			t.Fatalf("empty role but reason %q (from %q)", reason, text)
		}
	})
}
