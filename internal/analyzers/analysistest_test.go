package analyzers_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analyzers"
)

// moduleRoot is the repo root, from which fixture type-checking resolves
// both stdlib and repro/... imports.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// wantRe extracts `// want "regex" "regex"...` expectations: one marker
// per line, any number of quoted patterns after it.
var (
	wantRe    = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)
	wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hits int
}

// runFixture loads testdata/src/<name>, runs the analyzer over it, and
// checks the diagnostics against the fixture's // want comments: every
// expectation must be matched on its line, and every diagnostic must be
// expected.
func runFixture(t *testing.T, a *analyzers.Analyzer, name string) *analyzers.Result {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	load, err := analyzers.LoadDir(moduleRoot(t), dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	res, err := analyzers.RunAnalyzers(load, []*analyzers.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on fixture %s: %v", a.Name, name, err)
	}

	var wants []*expectation
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for lineno := 1; sc.Scan(); lineno++ {
			if m := wantRe.FindStringSubmatch(sc.Text()); m != nil {
				for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(arg[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", path, lineno, arg[1], err)
					}
					wants = append(wants, &expectation{file: path, line: lineno, re: re})
				}
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	for _, d := range res.Diagnostics {
		matched := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hits++
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if w.hits == 0 {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	return res
}

func TestAtomicMix(t *testing.T)    { runFixture(t, analyzers.AtomicMix, "atomicmix") }
func TestAllocBound(t *testing.T)   { runFixture(t, analyzers.AllocBound, "allocbound") }
func TestCtxCommit(t *testing.T)    { runFixture(t, analyzers.CtxCommit, "ctxcommit") }
func TestMetricPair(t *testing.T)   { runFixture(t, analyzers.MetricPair, "metricpair") }
func TestMetricPairOK(t *testing.T) { runFixture(t, analyzers.MetricPair, "metricpair_ok") }
func TestMetricPairWrapper(t *testing.T) {
	runFixture(t, analyzers.MetricPair, "metricpair_wrapper")
}
func TestStepPure(t *testing.T)     { runFixture(t, analyzers.StepPure, "steppure") }
func TestLockOrder(t *testing.T)    { runFixture(t, analyzers.LockOrder, "lockorder") }
func TestTicketWindow(t *testing.T) { runFixture(t, analyzers.TicketWindow, "ticketwindow") }
func TestSeqWindow(t *testing.T)    { runFixture(t, analyzers.SeqWindow, "seqwindow") }

// TestIgnoreDirectives pins the suppression contract: a directive with a
// reason silences the finding on its line (or the line below when it
// stands alone), a bare directive is itself a finding, and a directive
// that suppresses nothing is a finding.
func TestIgnoreDirectives(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "ignores"))
	if err != nil {
		t.Fatal(err)
	}
	load, err := analyzers.LoadDir(moduleRoot(t), dir, "fixture/ignores")
	if err != nil {
		t.Fatal(err)
	}
	res, err := analyzers.RunAnalyzers(load, []*analyzers.Analyzer{analyzers.AtomicMix})
	if err != nil {
		t.Fatal(err)
	}
	if res.Suppressed != 2 {
		t.Errorf("suppressed = %d, want 2 (inline and standalone directives)", res.Suppressed)
	}
	var got []string
	for _, d := range res.Diagnostics {
		got = append(got, d.Analyzer+": "+d.Message)
	}
	want := []string{
		"barriervet: barriervet:ignore directive needs a reason",
		"barriervet: barriervet:ignore directive suppresses nothing; remove it",
	}
	if len(got) != len(want) {
		t.Fatalf("diagnostics = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestBarriervetRepoClean is the smoke test the CI job relies on: the
// full analyzer suite must run clean over the repository itself.
func TestBarriervetRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks every package; skipped in -short")
	}
	load, err := analyzers.Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	res, err := analyzers.RunAnalyzers(load, analyzers.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("repo not barriervet-clean: %s", d)
	}
}
