package main

import (
	"fmt"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-dataset", "survey", "-alg", "whatsup", "-scale", "0.05", "-workers", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut.String())
	}
	got := out.String()
	if got == "" {
		t.Fatal("no output")
	}
	for _, want := range []string{"precision", "recall", "messages:", "overlay:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-alg", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit=%d want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown algorithm") {
		t.Fatalf("stderr=%q", errOut.String())
	}
}

func TestRunRejectsUnknownDataset(t *testing.T) {
	for _, args := range [][]string{
		{"-dataset", "bogus"},
		{"-dataset", "bogus", "-churn", "0.2"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("%v: exit=%d want 2", args, code)
		}
		if !strings.Contains(errOut.String(), `unknown dataset "bogus"`) {
			t.Fatalf("%v: stderr=%q", args, errOut.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("exit=%d want 2", code)
	}
}

func TestRunChurnScenario(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-dataset", "survey", "-scale", "0.08", "-churn", "0.2",
		"-flash-crowd", "10", "-workers", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"Churn scenario", "stable", "joiner", "ghost-fraction(end)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunLiveChurnScenario(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-live", "-live-transport", "channel", "-scale", "0.12",
		"-churn", "0.25", "-flash-crowd", "6"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"Live transport run", "churn:", "joiner", "ghost-fraction(end)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunLiveTCPFleet is the shell entry point of the one TCP-fleet recipe:
// loopback sockets end to end, reporting non-zero quality and a non-zero
// gossip/BEEP byte split.
func TestRunLiveTCPFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP fleet in -short mode")
	}
	var out, errOut strings.Builder
	code := run([]string{"-live", "-live-transport", "tcp", "-scale", "0.12"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit=%d stderr=%q", code, errOut.String())
	}
	var users, cycles int
	var p, r, f1 float64
	var messages, total, gossip, beep int64
	if _, err := fmt.Sscanf(out.String(),
		"Live transport run: tcp (%d users, %d cycles)\n  precision %f  recall %f  F1 %f\n  messages %d  wire bytes %d (gossip %d, beep %d)",
		&users, &cycles, &p, &r, &f1, &messages, &total, &gossip, &beep); err != nil {
		t.Fatalf("unexpected report (%v):\n%s", err, out.String())
	}
	if r <= 0 || messages == 0 || gossip == 0 || beep == 0 || !strings.Contains(out.String(), "kbps per node") {
		t.Fatalf("TCP fleet reported no quality or traffic:\n%s", out.String())
	}
}

func TestRunLiveRejectsBaselines(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-live", "-alg", "gossip"}, &out, &errOut); code != 2 {
		t.Fatalf("exit=%d want 2", code)
	}
	if !strings.Contains(errOut.String(), "only -alg whatsup") {
		t.Fatalf("stderr=%q", errOut.String())
	}
}

func TestRunLiveRejectsUnknownTransport(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-live", "-live-transport", "smoke-signal"}, &out, &errOut); code != 2 {
		t.Fatalf("exit=%d want 2", code)
	}
}

func TestRunChurnRejectsBaselines(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-alg", "gossip", "-churn", "0.2"}, &out, &errOut); code != 2 {
		t.Fatalf("exit=%d want 2", code)
	}
	if !strings.Contains(errOut.String(), "only -alg whatsup") {
		t.Fatalf("stderr=%q", errOut.String())
	}
}
