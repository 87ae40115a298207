package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestLoadSmoke drives the full harness end to end against an in-process
// daemon — closed-loop sweep, retrain + rank phase, rank-during-close
// probe — with a population small enough to finish in well under a
// second, and reads the run back from the JSON document stdout ends with.
func TestLoadSmoke(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-self", "-users", "24", "-shards", "2",
		"-days", "2", "-concurrency", "1,2", "-batch", "100",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}

	// Progress lines all start "acobeload:"; the report is the one
	// document that follows them.
	at := bytes.Index(buf.Bytes(), []byte("\n{\n"))
	if at < 0 {
		t.Fatalf("no JSON report on stdout:\n%s", buf.String())
	}
	var rep loadReport
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()[at:]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("decode report: %v\noutput:\n%s", err, buf.String())
	}
	if dec.More() {
		t.Error("output continues after the JSON report")
	}
	if len(rep.Sweep) != 2 {
		t.Fatalf("sweep levels = %d, want 2", len(rep.Sweep))
	}
	for _, lvl := range rep.Sweep {
		if lvl.Events <= 0 || lvl.Batches <= 0 || lvl.EventsPerS <= 0 {
			t.Errorf("level c=%d: empty load: %+v", lvl.Concurrency, lvl)
		}
		if lvl.IngestP99US < lvl.IngestP50US {
			t.Errorf("level c=%d: p99 %dus < p50 %dus", lvl.Concurrency, lvl.IngestP99US, lvl.IngestP50US)
		}
	}
	// Four closed days with ω=3, 𝒟=2 leave exactly one compound day, so
	// the retrain phase must have run.
	if rep.Retrain == nil {
		t.Fatal("retrain phase did not run")
	}
	if rep.Retrain.RetrainS <= 0 {
		t.Errorf("retrain duration = %v", rep.Retrain.RetrainS)
	}
	if p := rep.RankDuringClose; p == nil || len(p.Closes) != 2 {
		t.Errorf("rank-during-close probe = %+v, want 2 closes", p)
	}
}

// TestOpenLoopSmoke exercises the scheduled-release discipline.
func TestOpenLoopSmoke(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-self", "-users", "24", "-shards", "1",
		"-days", "1", "-concurrency", "2", "-batch", "100",
		"-mode", "open", "-rate", "200", "-skip-retrain",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
}

func TestFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{},                            // neither -target nor -self
		{"-self", "-mode", "looped"},  // unknown discipline
		{"-self", "-concurrency", ""}, // empty sweep
		{"-self", "-users", "0"},      // empty population
	}
	for _, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}
