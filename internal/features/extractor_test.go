package features

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"acobe/internal/cert"
)

func at(d cert.Day, hour int) time.Time {
	return d.Date().Add(time.Duration(hour) * time.Hour)
}

func newTestExtractor(t *testing.T) *Extractor {
	t.Helper()
	x, err := NewExtractor([]string{"alice", "bob"}, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestExtractorCountsByTimeframe(t *testing.T) {
	x := newTestExtractor(t)
	events := []cert.Event{
		{Type: cert.EventDevice, Time: at(0, 10), User: "alice", PC: "PC-1", Activity: cert.ActConnect},
		{Type: cert.EventDevice, Time: at(0, 22), User: "alice", PC: "PC-1", Activity: cert.ActConnect},
		{Type: cert.EventDevice, Time: at(0, 11), User: "bob", PC: "PC-2", Activity: cert.ActConnect},
	}
	if err := x.Consume(0, events); err != nil {
		t.Fatal(err)
	}
	tab := x.Table()
	f := tab.FeatureIndex(FeatDeviceConnection)
	if got := tab.At(0, f, int(cert.Work), 0); got != 1 {
		t.Errorf("alice work connects = %g", got)
	}
	if got := tab.At(0, f, int(cert.Off), 0); got != 1 {
		t.Errorf("alice off connects = %g", got)
	}
	if got := tab.At(1, f, int(cert.Work), 0); got != 1 {
		t.Errorf("bob work connects = %g", got)
	}
}

func TestExtractorNewHostSemantics(t *testing.T) {
	x := newTestExtractor(t)
	conn := func(d cert.Day, pc string) cert.Event {
		return cert.Event{Type: cert.EventDevice, Time: at(d, 10), User: "alice", PC: pc, Activity: cert.ActConnect}
	}
	// Day 0: two connects to the same new host — both count as new (pair
	// first seen on day d counts all day).
	if err := x.Consume(0, []cert.Event{conn(0, "PC-1"), conn(0, "PC-1")}); err != nil {
		t.Fatal(err)
	}
	// Day 1: same host no longer new; a different host is.
	if err := x.Consume(1, []cert.Event{conn(1, "PC-1"), conn(1, "PC-9")}); err != nil {
		t.Fatal(err)
	}
	tab := x.Table()
	f := tab.FeatureIndex(FeatDeviceNewHost)
	if got := tab.At(0, f, int(cert.Work), 0); got != 2 {
		t.Errorf("day-0 new-host = %g, want 2", got)
	}
	if got := tab.At(0, f, int(cert.Work), 1); got != 1 {
		t.Errorf("day-1 new-host = %g, want 1", got)
	}
}

func TestExtractorFileFeatures(t *testing.T) {
	x := newTestExtractor(t)
	ev := func(act, dir, file string) cert.Event {
		return cert.Event{Type: cert.EventFile, Time: at(0, 10), User: "alice", Activity: act, Direction: dir, FileID: file}
	}
	events := []cert.Event{
		ev(cert.ActFileOpen, cert.DirLocal, "F1"),
		ev(cert.ActFileOpen, cert.DirRemote, "F1"),
		ev(cert.ActFileWrite, cert.DirLocal, "F2"),
		ev(cert.ActFileWrite, cert.DirRemote, "F2"),
		ev(cert.ActFileCopy, cert.DirLocalToRemote, "F3"),
		ev(cert.ActFileCopy, cert.DirRemoteToLocal, "F3"),
	}
	if err := x.Consume(0, events); err != nil {
		t.Fatal(err)
	}
	tab := x.Table()
	for _, name := range []string{
		FeatFileOpenLocal, FeatFileOpenRemote, FeatFileWriteLocal,
		FeatFileWriteRemote, FeatFileCopyL2R, FeatFileCopyR2L,
	} {
		if got := tab.At(0, tab.FeatureIndex(name), int(cert.Work), 0); got != 1 {
			t.Errorf("%s = %g, want 1", name, got)
		}
	}
	// Six distinct (activity, direction, file) pairs ⇒ new-op 6.
	if got := tab.At(0, tab.FeatureIndex(FeatFileNewOp), int(cert.Work), 0); got != 6 {
		t.Errorf("file new-op = %g, want 6", got)
	}
	// Coarse counters aggregate directions.
	if got := tab.At(0, tab.FeatureIndex(FeatCoarseFileOpen), int(cert.Work), 0); got != 2 {
		t.Errorf("coarse open = %g, want 2", got)
	}
}

func TestExtractorHTTPFeatures(t *testing.T) {
	x := newTestExtractor(t)
	up := func(d cert.Day, ft, dom string) cert.Event {
		return cert.Event{Type: cert.EventHTTP, Time: at(d, 10), User: "alice", Activity: cert.ActUpload, FileType: ft, Domain: dom}
	}
	day0 := []cert.Event{
		up(0, "doc", "a.com"),
		up(0, "doc", "a.com"), // repeat same pair, same day: still new
		up(0, "zip", "a.com"),
		{Type: cert.EventHTTP, Time: at(0, 10), User: "alice", Activity: cert.ActVisit, Domain: "a.com"},
		{Type: cert.EventHTTP, Time: at(0, 10), User: "alice", Activity: cert.ActDownload, Domain: "a.com", FileType: "pdf"},
	}
	if err := x.Consume(0, day0); err != nil {
		t.Fatal(err)
	}
	day1 := []cert.Event{
		up(1, "doc", "a.com"), // seen
		up(1, "doc", "b.com"), // new pair
	}
	if err := x.Consume(1, day1); err != nil {
		t.Fatal(err)
	}
	tab := x.Table()
	w := int(cert.Work)
	if got := tab.At(0, tab.FeatureIndex(FeatHTTPUploadDoc), w, 0); got != 2 {
		t.Errorf("upload-doc day0 = %g, want 2", got)
	}
	if got := tab.At(0, tab.FeatureIndex(FeatHTTPUploadZip), w, 0); got != 1 {
		t.Errorf("upload-zip day0 = %g, want 1", got)
	}
	if got := tab.At(0, tab.FeatureIndex(FeatHTTPNewOp), w, 0); got != 3 {
		t.Errorf("http new-op day0 = %g, want 3 (doc,doc,zip all first-seen)", got)
	}
	if got := tab.At(0, tab.FeatureIndex(FeatHTTPNewOp), w, 1); got != 1 {
		t.Errorf("http new-op day1 = %g, want 1", got)
	}
	// Visits and downloads feed only the coarse features.
	if got := tab.At(0, tab.FeatureIndex(FeatCoarseHTTPVisit), w, 0); got != 1 {
		t.Errorf("coarse visit = %g", got)
	}
	if got := tab.At(0, tab.FeatureIndex(FeatCoarseHTTPDownload), w, 0); got != 1 {
		t.Errorf("coarse download = %g", got)
	}
}

func TestExtractorLogonAndEmail(t *testing.T) {
	x := newTestExtractor(t)
	events := []cert.Event{
		{Type: cert.EventLogon, Time: at(0, 9), User: "bob", Activity: cert.ActLogon},
		{Type: cert.EventLogon, Time: at(0, 17), User: "bob", Activity: cert.ActLogoff},
		{Type: cert.EventEmail, Time: at(0, 11), User: "bob", Activity: cert.ActSend, Recipient: "x@y"},
	}
	if err := x.Consume(0, events); err != nil {
		t.Fatal(err)
	}
	tab := x.Table()
	w := int(cert.Work)
	if tab.At(1, tab.FeatureIndex(FeatCoarseLogon), w, 0) != 1 ||
		tab.At(1, tab.FeatureIndex(FeatCoarseLogoff), w, 0) != 1 ||
		tab.At(1, tab.FeatureIndex(FeatCoarseEmailSend), w, 0) != 1 {
		t.Error("logon/logoff/email coarse counts wrong")
	}
}

func TestExtractorUnknownUserIgnored(t *testing.T) {
	x := newTestExtractor(t)
	err := x.Consume(0, []cert.Event{
		{Type: cert.EventDevice, Time: at(0, 10), User: "mallory", Activity: cert.ActConnect},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := x.Table()
	f := tab.FeatureIndex(FeatDeviceConnection)
	if tab.At(0, f, 0, 0) != 0 || tab.At(1, f, 0, 0) != 0 {
		t.Error("unknown user's events leaked into the table")
	}
}

func TestExtractorRejectsOutOfOrderDays(t *testing.T) {
	x := newTestExtractor(t)
	if err := x.Consume(3, nil); err != nil {
		t.Fatal(err)
	}
	if err := x.Consume(3, nil); err == nil {
		t.Error("no error for repeated day")
	}
	if err := x.Consume(2, nil); err == nil {
		t.Error("no error for backwards day")
	}
}

func TestTrackedFeaturesCoverAspects(t *testing.T) {
	have := make(map[string]bool)
	for _, f := range TrackedFeatures() {
		have[f] = true
	}
	for _, a := range append(ACOBEAspects(), BaselineAspects()...) {
		for _, f := range a.Features {
			if !have[f] {
				t.Errorf("aspect feature %s not tracked", f)
			}
		}
	}
	if !have[FeatCoarseEmailSend] {
		t.Error("email feature not tracked")
	}
}

func TestExtractorUnknownUploadType(t *testing.T) {
	x := newTestExtractor(t)
	err := x.Consume(0, []cert.Event{
		{Type: cert.EventHTTP, Time: at(0, 10), User: "alice", Activity: cert.ActUpload, FileType: "bin", Domain: "a.com"},
	})
	if err != nil {
		t.Fatal(err)
	}
	tab := x.Table()
	// No fine-grained upload feature matches "bin"…
	for _, name := range []string{FeatHTTPUploadDoc, FeatHTTPUploadExe, FeatHTTPUploadZip} {
		if tab.At(0, tab.FeatureIndex(name), 0, 0) != 0 {
			t.Errorf("%s counted an unknown file type", name)
		}
	}
	// …but the coarse upload count and the new-op pair still register.
	if tab.At(0, tab.FeatureIndex(FeatCoarseHTTPUpload), 0, 0) != 1 {
		t.Error("coarse upload not counted")
	}
	if tab.At(0, tab.FeatureIndex(FeatHTTPNewOp), 0, 0) != 1 {
		t.Error("new-op pair not counted for unknown type")
	}
}

func TestNewExtractorForRefusesUnknownFeature(t *testing.T) {
	_, err := NewExtractorFor([]string{"alice"}, []string{FeatFileNewOp, "coarse:typo"}, 0, 9)
	if err == nil || !strings.Contains(err.Error(), `"coarse:typo"`) {
		t.Fatalf("err = %v, want a refusal naming \"coarse:typo\"", err)
	}
}

// TestExtractorSubsetMatchesFull: an extractor over some of the features
// counts every event the full one counts and fills each of its cells bit
// for bit as the full one does; a new-op kind whose feature it lacks keeps
// no candidates and no first-seen history.
func TestExtractorSubsetMatchesFull(t *testing.T) {
	ids, byDay := genDays(t, 6, 12)
	end := cert.Day(len(byDay) - 1)
	noNewHost := slices.DeleteFunc(TrackedFeatures(), func(f string) bool { return f == FeatDeviceNewHost })
	for name, feats := range map[string][]string{
		"no-new-host": noNewHost,
		"acobe":       AllFeatureNames(ACOBEAspects()),
		"file":        FileAspect().Features,
	} {
		t.Run(name, func(t *testing.T) {
			full, err := NewExtractor(ids, 0, end)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := NewExtractorFor(ids, feats, 0, end)
			if err != nil {
				t.Fatal(err)
			}
			untracked := func(kind int) bool { return sub.f.newOp[kind] < 0 }
			for d, evs := range byDay {
				for i := range evs {
					if _, err := full.Apply(&evs[i]); err != nil {
						t.Fatal(err)
					}
					if _, err := sub.Apply(&evs[i]); err != nil {
						t.Fatal(err)
					}
				}
				for _, c := range sub.day(cert.Day(d)).Cands {
					if _, kind := c.Head(); untracked(kind) {
						t.Fatalf("day %d: candidate of untracked kind %d", d, kind)
					}
				}
				want, err := full.CloseDay(cert.Day(d))
				if err != nil {
					t.Fatal(err)
				}
				if got, err := sub.CloseDay(cert.Day(d)); err != nil || got != want {
					t.Fatalf("day %d: subset counted %d events (%v), full %d", d, got, err, want)
				}
			}
			for kind := 0; kind < numKinds; kind++ {
				for u := range ids {
					n, nFull := sub.seen.Count(u, kind), full.seen.Count(u, kind)
					if untracked(kind) && n != 0 || !untracked(kind) && n != nFull {
						t.Fatalf("user %d kind %d: history holds %d keys, full %d", u, kind, n, nFull)
					}
				}
			}
			ft, st := full.Table(), sub.Table()
			if !slices.Equal(st.Features(), feats) {
				t.Fatalf("subset table features %q, want %q", st.Features(), feats)
			}
			for f, name := range feats {
				ff := ft.FeatureIndex(name)
				for u := range ids {
					for frame := 0; frame < cert.NumTimeframes; frame++ {
						got, want := st.Series(u, f, frame), ft.Series(u, ff, frame)
						for d := range got {
							if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
								t.Fatalf("%s user %d frame %d day %d: %v, full %v", name, u, frame, d, got[d], want[d])
							}
						}
					}
				}
			}
		})
	}
}
