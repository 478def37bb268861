package main

import (
	"os"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-run", "table1,table2", "-scale", "0.05"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "Table I") || !strings.Contains(got, "Table II") {
		t.Fatalf("expected Table I and II in output:\n%s", got)
	}
}

func TestRunSingleSimExperiment(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-run", "fig6", "-scale", "0.05", "-engine-workers", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "fig6") {
		t.Fatalf("expected fig6 marker in output:\n%s", out.String())
	}
}

func TestRunLiveTransportScenario(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-run", "live", "-transport", "channel", "-scale", "0.1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"Live transport run: channel", "wire bytes", "kbps"} {
		if !strings.Contains(got, want) {
			t.Fatalf("expected %q in output:\n%s", want, got)
		}
	}
}

func TestRunLiveChurnScenario(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-run", "live", "-transport", "channel", "-scale", "0.1",
		"-live-churn", "0.25", "-live-flash-crowd", "6"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"Live transport run: channel", "churn:", "joiner", "ghost-fraction(end)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("expected %q in output:\n%s", want, got)
		}
	}
}

func TestRunSkipLiveSkipsLiveScenario(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-run", "live", "-skip-live"}, &out, &errOut); code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "skipped (-skip-live)") {
		t.Fatalf("expected skip notice:\n%s", out.String())
	}
	if strings.Contains(out.String(), "wire bytes") {
		t.Fatal("-skip-live must not run the live fleet")
	}
}

func TestRunRejectsUnknownTransport(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-run", "live", "-transport", "smoke-signal"}, &out, &errOut); code != 2 {
		t.Fatalf("exit=%d want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown -transport") {
		t.Fatalf("stderr=%q", errOut.String())
	}
}

// TestRunRejectsUnknownExperiment includes "hotpath": the hot-path costs
// are pinned by TestHotPathPinned in internal/experiments, and the CLI no
// longer knows the name.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	for _, name := range []string{"nope", "hotpath"} {
		var out, errOut strings.Builder
		if code := run([]string{"-run", name}, &out, &errOut); code != 2 {
			t.Fatalf("-run %s: exit=%d want 2", name, code)
		}
		if !strings.Contains(errOut.String(), "no experiment matched") {
			t.Fatalf("-run %s: stderr=%q", name, errOut.String())
		}
	}
}

// TestRunRejectsSeedForSeedOneScenarios pins the refusal of a -seed the
// churn and adversarial scenarios would ignore: they build their worlds from
// seed 1, so any other seed printed byte-identical reports under its name.
// A seed for the other experiments still runs them.
func TestRunRejectsSeedForSeedOneScenarios(t *testing.T) {
	for _, name := range []string{"churn", "adversarial", "table1,churn"} {
		var out, errOut strings.Builder
		if code := run([]string{"-run", name, "-seed", "2"}, &out, &errOut); code != 2 {
			t.Fatalf("-run %s -seed 2: exit=%d want 2", name, code)
		}
		if msg := errOut.String(); !strings.Contains(msg, "only run seed 1") || out.Len() != 0 {
			t.Fatalf("-run %s -seed 2: want a refusal before anything runs, got stderr %q stdout %q", name, msg, out.String())
		}
	}
	var out, errOut strings.Builder
	if code := run([]string{"-run", "table2", "-seed", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("-run table2 -seed 2: exit=%d, stderr %q", code, errOut.String())
	}
}

// TestRunChurnPrintsCohortTable drives the churn scenario through the CLI:
// the report is ChurnRun's cohort table, the bench world heals by its last
// cycle, and the run leaves no file behind.
func TestRunChurnPrintsCohortTable(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) }) // best effort: the temp dir is removed either way
	var stdout, stderr strings.Builder
	code := run([]string{"-run", "churn", "-cycle-peers", "200"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, stderr.String())
	}
	for _, want := range []string{
		"churn 20% departure-notices=true refill-watermark=0.50",
		"Churn scenario (communities, 200 base users +10 flash-crowd joiners, 45 cycles",
		"cohort     nodes  precision  recall  recall*  f1     f1*    deliveries/node",
		"  stable ", "  joiner ", "  rejoiner ",
		"ghost-fraction(end)=0.0000",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("expected %q in output:\n%s", want, stdout.String())
		}
	}
	if left, err := os.ReadDir("."); err != nil || len(left) != 0 {
		t.Fatalf("the churn scenario must write no file, found %v (err=%v)", left, err)
	}
}

// TestRunRejectsEmptyAdversarialCohort is the regression for the integer
// divide by zero in runAdversarialPoint: a cohort that rounds to nobody
// (-adversarial-spam 0.001 of 600, or 10% of 5 peers) or to everybody
// (-adversarial-spam 1) used to panic mid-run; it is refused where the
// flags arrive, before any experiment starts.
func TestRunRejectsEmptyAdversarialCohort(t *testing.T) {
	for _, args := range [][]string{
		{"-adversarial-spam", "0.001"},
		{"-adversarial-spam", "1"},
		{"-adversarial-peers", "5"},
	} {
		var out, errOut strings.Builder
		code := run(append([]string{"-run", "table1,adversarial", "-adversarial-cycles", "5"}, args...), &out, &errOut)
		if code != 2 {
			t.Fatalf("%v: exit=%d want 2", args, code)
		}
		if msg := errOut.String(); !strings.Contains(msg, "at least one attacker and one honest node") || strings.Count(msg, "\n") != 1 {
			t.Fatalf("%v: want a one-line refusal on stderr, got %q", args, msg)
		}
		if out.Len() != 0 {
			t.Fatalf("%v: refused before anything runs, yet stdout has %q", args, out.String())
		}
	}
}
