// Package golden checks a test's output against a pinned file, and
// re-pins the file when the UPDATE_GOLDEN environment variable is set.
// Every golden test in the repository goes through Check, so
//
//	UPDATE_GOLDEN=1 go test ./...
//
// (or `make goldens`, which also re-pins the examples, the API surface
// and bench's digests) is the one way to accept an intended change.
package golden

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"testing"
)

// Check compares got with the file at path. On a difference it fails
// the test with the first differing line, named path:N, both sides of
// that line, both line counts and, when they are equal, how many lines
// differ (for a one-field-per-line record, how many fields moved); a
// missing file fails too. Neither stops the test, so the caller's other
// assertions still run. When UPDATE_GOLDEN is non-empty, Check writes got
// to path instead and does not fail.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		t.Errorf("golden %s is missing; re-pin with UPDATE_GOLDEN=1", path)
		return
	}
	if err != nil {
		t.Fatalf("golden: %v", err)
		return
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := lines(got), lines(want)
	n := 0
	for n < len(g) && n < len(w) && g[n] == w[n] {
		n++
	}
	msg := fmt.Sprintf("%s:%d: output differs from the golden (re-pin with UPDATE_GOLDEN=1 if intended)\n  golden: %s\n  got:    %s\n  golden has %d lines, got %d",
		path, n+1, line(w, n), line(g, n), len(w), len(g))
	if len(g) == len(w) {
		k := 0
		for i := n; i < len(g); i++ {
			if g[i] != w[i] {
				k++
			}
		}
		msg += fmt.Sprintf("; %d of %d lines differ", k, len(g))
	}
	t.Errorf("%s", msg)
}

// lines splits b after each newline, so a missing final newline is a
// difference in the last line.
func lines(b []byte) []string {
	ls := strings.SplitAfter(string(b), "\n")
	if ls[len(ls)-1] == "" {
		ls = ls[:len(ls)-1]
	}
	return ls
}

func line(ls []string, n int) string {
	if n >= len(ls) {
		return "(end of file)"
	}
	return strconv.Quote(ls[n])
}
