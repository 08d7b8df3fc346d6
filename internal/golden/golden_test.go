package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeT records Check's failures instead of failing the real test.
type fakeT struct {
	testing.TB
	failed bool
	msg    string
}

func (f *fakeT) Helper() {}

func (f *fakeT) Errorf(format string, args ...any) {
	f.failed = true
	f.msg = fmt.Sprintf(format, args...)
}

func (f *fakeT) Fatalf(format string, args ...any) { f.Errorf(format, args...) }

func writeGolden(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.golden")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckEqualPasses(t *testing.T) {
	t.Setenv("UPDATE_GOLDEN", "")
	path := writeGolden(t, "a\nb\nc\n")
	var f fakeT
	Check(&f, path, []byte("a\nb\nc\n"))
	if f.failed {
		t.Fatalf("equal bytes failed: %s", f.msg)
	}
}

func TestCheckNamesFirstDifferingLine(t *testing.T) {
	t.Setenv("UPDATE_GOLDEN", "")
	path := writeGolden(t, "a\nb\nc\n")
	var f fakeT
	Check(&f, path, []byte("a\nB\nc\nd\n"))
	if !f.failed {
		t.Fatal("a differing line passed")
	}
	for _, want := range []string{path + ":2:", `golden: "b\n"`, `got:    "B\n"`, "golden has 3 lines, got 4"} {
		if !strings.Contains(f.msg, want) {
			t.Errorf("message lacks %q:\n%s", want, f.msg)
		}
	}
	if strings.Contains(f.msg, `"c\n"`) {
		t.Errorf("message shows more than the first differing line:\n%s", f.msg)
	}
}

func TestCheckCountsDifferingLines(t *testing.T) {
	t.Setenv("UPDATE_GOLDEN", "")
	path := writeGolden(t, "a\nb\nc\nd\n")
	var f fakeT
	Check(&f, path, []byte("a\nB\nc\nD\n"))
	for _, want := range []string{path + ":2:", "golden has 4 lines, got 4", "2 of 4 lines differ"} {
		if !strings.Contains(f.msg, want) {
			t.Errorf("message lacks %q:\n%s", want, f.msg)
		}
	}
}

func TestCheckMissingFile(t *testing.T) {
	t.Setenv("UPDATE_GOLDEN", "")
	path := filepath.Join(t.TempDir(), "absent.golden")
	var f fakeT
	Check(&f, path, []byte("x\n"))
	if !f.failed {
		t.Fatal("a missing golden passed")
	}
	for _, want := range []string{path, "UPDATE_GOLDEN=1"} {
		if !strings.Contains(f.msg, want) {
			t.Errorf("message lacks %q:\n%s", want, f.msg)
		}
	}
}

func TestCheckUpdateWrites(t *testing.T) {
	t.Setenv("UPDATE_GOLDEN", "1")
	for name, path := range map[string]string{
		"differing": writeGolden(t, "old\n"),
		"missing":   filepath.Join(t.TempDir(), "new.golden"),
	} {
		var f fakeT
		Check(&f, path, []byte("new\n"))
		if f.failed {
			t.Errorf("%s: re-pin failed: %s", name, f.msg)
		}
		if b, err := os.ReadFile(path); err != nil || string(b) != "new\n" {
			t.Errorf("%s: file holds %q (%v), want the new bytes", name, b, err)
		}
	}
}
