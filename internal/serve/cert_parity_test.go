package serve

import (
	"bytes"
	"context"
	"testing"

	"acobe/internal/cert"
	"acobe/internal/deviation"
)

func certProbeSetup(t *testing.T) (Config, cert.Config) {
	gcfg := cert.SmallConfig(10)
	gcfg.Seed = 42
	gen, err := cert.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	deptIdx := map[string]int{}
	for i, d := range gcfg.Departments {
		deptIdx[d] = i
	}
	var users []string
	var member []int
	for _, u := range gen.Users() {
		users = append(users, u.ID)
		member = append(member, deptIdx[u.Department])
	}
	start, _ := gen.Span()
	return Config{
		Users: users, Groups: gcfg.Departments, Membership: member,
		Start:     start,
		Deviation: deviation.Config{Window: 30, MatrixDays: 14, Delta: 3, Epsilon: 1, Weighted: true},
	}, gcfg
}

// feedCert replays days [from, to] of a FRESH generator built from gcfg:
// generation is a single RNG sequence, so each pass must start from a new
// generator to reproduce the same events.
func feedCert(t *testing.T, s *Server, gcfg cert.Config, from, to cert.Day) {
	t.Helper()
	gen, err := cert.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	err = gen.Stream(func(d cert.Day, events []cert.Event) error {
		if d < from || d > to {
			return nil
		}
		batch := make([]Event, len(events))
		for i := range events {
			batch[i] = Event{Cert: &events[i]}
		}
		if err := s.Submit(ctx, batch); err != nil {
			t.Fatalf("submit %v: %v", d, err)
		}
		return s.CloseDay(ctx, d)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCERTRecoveryStateParity drives the realistic CERT generator (the
// golden corpus shape: 40 users, four departments, window 30) through a
// persisted server with a mid-stream restart, and demands bit-identical
// ingest state against an uninterrupted in-memory run — the same parity the
// crash-matrix test asserts end-to-end at the ranking layer.
func TestCERTRecoveryStateParity(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a quarter of the CERT corpus")
	}
	cfg, gcfg := certProbeSetup(t)
	start := cfg.Start
	mid, last := start+60, start+120

	dir := t.TempDir()
	a, _, err := Open(cfg, PersistConfig{Dir: dir, SnapshotEvery: 30})
	if err != nil {
		t.Fatal(err)
	}
	feedCert(t, a, gcfg, start, mid)
	var pre bytes.Buffer
	_ = a.shards[0].ing.SaveState(&pre)
	shutdown(t, a)

	b, info, err := Open(cfg, PersistConfig{Dir: dir, SnapshotEvery: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, b)
	if !info.SnapshotLoaded {
		t.Fatalf("no snapshot recovered: %+v", info)
	}
	var post bytes.Buffer
	_ = b.shards[0].ing.SaveState(&post)
	if !bytes.Equal(pre.Bytes(), post.Bytes()) {
		t.Error("ingest state after recovery differs from pre-shutdown state")
	}
	feedCert(t, b, gcfg, mid+1, last)

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, ref)
	feedCert(t, ref, gcfg, start, last)

	got, want := serverStateBytes(t, b), serverStateBytes(t, ref)
	if !bytes.Equal(got, want) {
		t.Error("recovered+resumed state differs from uninterrupted in-memory run")
	}
}
