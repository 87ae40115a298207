package serve

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"acobe/internal/cert"
	"acobe/internal/enterprise"
	"acobe/internal/features"
	"acobe/pkg/acobe"
)

// TestDefaultTableFollowsAspects: a CERT daemon measures exactly what its
// model reads. Every shard's table, the σ field and the group table hold
// the configured aspects' features in acobe.AspectsOf order — the paper's
// 16 by default — and an event that feeds none of them (a logon) is still
// an ingested event. A directory written under one set of aspects is
// refused under another, naming the features that differ.
func TestDefaultTableFollowsAspects(t *testing.T) {
	ctx := context.Background()
	for name, tc := range map[string]struct {
		opts []acobe.Option
		want []string
	}{
		"default": {nil, features.AllFeatureNames(features.ACOBEAspects())},
		"openday": {openDayDetOpts(), []string{features.FeatDeviceConnection, features.FeatDeviceNewHost, features.FeatFileOpenLocal, features.FeatFileNewOp}},
	} {
		t.Run(name, func(t *testing.T) {
			if got := features.AllFeatureNames(acobe.AspectsOf(tc.opts...)); !slices.Equal(got, tc.want) {
				t.Fatalf("AspectsOf features %q, want %q", got, tc.want)
			}
			cfg := shardPersistCfg(3)
			cfg.Users = spanningUsers(t, 3, 2)
			cfg.DetectorOptions = tc.opts
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown(t, srv)
			for _, sh := range srv.shards {
				if got := sh.ing.Table().Features(); !slices.Equal(got, tc.want) {
					t.Fatalf("shard %d table features %q, want %q", sh.idx, got, tc.want)
				}
			}
			p := srv.pub.Load()
			for what, got := range map[string][]string{
				"σ field":     p.ind.Table().Features(),
				"group σ":     p.grp.Table().Features(),
				"group table": srv.grpTbl.Features(),
			} {
				if !slices.Equal(got, tc.want) {
					t.Fatalf("%s features %q, want %q", what, got, tc.want)
				}
			}

			var logons []Event
			for _, u := range cfg.Users {
				logons = append(logons, Event{Cert: &cert.Event{Type: cert.EventLogon, Activity: cert.ActLogon,
					Time: cert.Day(0).Date().Add(9 * time.Hour), User: u}})
			}
			if err := srv.Submit(ctx, logons); err != nil {
				t.Fatal(err)
			}
			if err := srv.CloseDay(ctx, 0); err != nil {
				t.Fatal(err)
			}
			if st := srv.Status(); st.Ingested != int64(len(logons)) || st.UnknownUserEvents != 0 {
				t.Fatalf("logon-only batch: %d ingested, %d unknown, want %d and 0", st.Ingested, st.UnknownUserEvents, len(logons))
			}
		})
	}

	t.Run("reopen under other aspects", func(t *testing.T) {
		cfg := shardPersistCfg(1)
		pc := PersistConfig{Dir: t.TempDir(), SnapshotEvery: 2}
		a, _, err := Open(cfg, pc)
		if err != nil {
			t.Fatal(err)
		}
		feedDays(t, a, 0, 3)
		shutdown(t, a)
		cfg.DetectorOptions = openDayDetOpts()
		_, _, err = Open(cfg, pc)
		if err == nil || !strings.Contains(err.Error(), `extra in the state ["file:open-from-remote"`) {
			t.Fatalf("reopened a 16-feature directory under 4 features: %v", err)
		}
	})
}

// TestNewRefusesUnfillableAspect: an aspect reading a feature the table
// cannot hold fails the daemon at construction, naming the feature — not
// its first retrain.
func TestNewRefusesUnfillableAspect(t *testing.T) {
	cfg := shardPersistCfg(1)
	cfg.DetectorOptions = []acobe.Option{acobe.WithAspects(enterprise.Aspects()...)}
	want := enterprise.Aspects()[0]
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), `"`+want.Features[0]+`"`) {
		t.Fatalf("default CERT ingestor under the enterprise aspects: %v, want an error naming %q", err, want.Features[0])
	}
	// A factory that builds the 27-feature CERT table gets as far as the
	// aspect check, which names the aspect too.
	cfg.IngestorFactory = func(users []string, start cert.Day) (Ingestor, error) { return NewCERTIngestor(users, start) }
	_, err := New(cfg)
	if err == nil || !strings.Contains(err.Error(), "aspect "+want.Name+" ") || !strings.Contains(err.Error(), `"`+want.Features[0]+`"`) {
		t.Fatalf("27-feature CERT ingestor under the enterprise aspects: %v, want an error naming aspect %s and %q", err, want.Name, want.Features[0])
	}
}
