package cert

import (
	"testing"
)

// tinyConfig keeps generator tests fast: 2 departments, short span.
func tinyConfig() Config {
	cfg := Config{
		Seed:         7,
		Departments:  []string{"Research", "Engineering"},
		UsersPerDept: 5,
		Start:        0,
		End:          120,
		EnvChanges: []EnvChange{
			{Start: 40, Duration: 3, Domain: "newportal.dtaa.com", UploadsPerDay: 3, VisitsPerDay: 10},
		},
	}
	cfg.Scenarios = []Scenario{
		NewScenario1("s1", makeUser(0, "Research", 1).ID, 60, 75),
	}
	return cfg
}

func collectAll(t *testing.T, g *Generator) map[Day][]Event {
	t.Helper()
	out := make(map[Day][]Event)
	if err := g.Stream(func(d Day, events []Event) error {
		out[d] = events
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no error for empty config")
	}
	cfg := tinyConfig()
	cfg.UsersPerDept = 0
	if _, err := New(cfg); err == nil {
		t.Error("no error for zero users")
	}
	cfg = tinyConfig()
	cfg.End = cfg.Start
	if _, err := New(cfg); err == nil {
		t.Error("no error for empty span")
	}
	cfg = tinyConfig()
	cfg.Scenarios = []Scenario{NewScenario1("bad", "NOSUCH", 60, 70)}
	if _, err := New(cfg); err == nil {
		t.Error("no error for scenario targeting unknown user")
	}
}

func TestUsersAreStable(t *testing.T) {
	g1, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	u1, u2 := g1.Users(), g2.Users()
	if len(u1) != 10 {
		t.Fatalf("got %d users", len(u1))
	}
	for i := range u1 {
		if u1[i] != u2[i] {
			t.Fatalf("user %d differs: %+v vs %+v", i, u1[i], u2[i])
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	g1, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	e1 := collectAll(t, g1)
	e2 := collectAll(t, g2)
	if len(e1) != len(e2) {
		t.Fatalf("day counts differ: %d vs %d", len(e1), len(e2))
	}
	for d, events := range e1 {
		if len(events) != len(e2[d]) {
			t.Fatalf("day %v: %d vs %d events", d, len(events), len(e2[d]))
		}
		for i := range events {
			if events[i] != e2[d][i] {
				t.Fatalf("day %v event %d differs", d, i)
			}
		}
	}
}

func TestSeedChangesStream(t *testing.T) {
	cfg := tinyConfig()
	g1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := tinyConfig()
	cfg2.Seed = 8
	g2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	n1, n2 := 0, 0
	g1.Stream(func(_ Day, e []Event) error { n1 += len(e); return nil })
	g2.Stream(func(_ Day, e []Event) error { n2 += len(e); return nil })
	if n1 == n2 {
		t.Errorf("different seeds produced identical event counts (%d); suspicious", n1)
	}
}

func TestScenario1UserQuietBeforeWindow(t *testing.T) {
	g, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	insider := g.Scenarios()[0].UserID()
	deviceBefore, deviceDuring, afterLeave := 0, 0, 0
	err = g.Stream(func(d Day, events []Event) error {
		for _, e := range events {
			if e.User != insider {
				continue
			}
			if e.Type == EventDevice {
				switch {
				case d < 60:
					deviceBefore++
				case d <= 75:
					deviceDuring++
				}
			}
			if d > 75+14 {
				afterLeave++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if deviceBefore != 0 {
		t.Errorf("scenario-1 insider had %d device events before the window", deviceBefore)
	}
	if deviceDuring == 0 {
		t.Error("scenario-1 insider had no device events during the window")
	}
	if afterLeave != 0 {
		t.Errorf("insider still active %d events after leaving the organization", afterLeave)
	}
}

func TestScenario1UploadsToWikileaks(t *testing.T) {
	g, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	insider := g.Scenarios()[0].UserID()
	uploads := 0
	g.Stream(func(d Day, events []Event) error {
		for _, e := range events {
			if e.User == insider && e.Type == EventHTTP && e.Activity == ActUpload && e.Domain == "wikileaks.org" {
				uploads++
			}
		}
		return nil
	})
	if uploads == 0 {
		t.Error("no wikileaks uploads from the scenario-1 insider")
	}
}

func TestEnvChangeHitsAllUsers(t *testing.T) {
	g, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	usersHit := make(map[string]bool)
	g.Stream(func(d Day, events []Event) error {
		if d < 40 || d >= 43 {
			return nil
		}
		for _, e := range events {
			if e.Type == EventHTTP && e.Domain == "newportal.dtaa.com" {
				usersHit[e.User] = true
			}
		}
		return nil
	})
	// Env change is org-wide; nearly everyone (modulo vacation) appears.
	if len(usersHit) < 8 {
		t.Errorf("env change reached only %d/10 users", len(usersHit))
	}
}

func TestWeekendsAreQuiet(t *testing.T) {
	g, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	weekday, weekend := 0, 0
	weekdayDays, weekendDays := 0, 0
	g.Stream(func(d Day, events []Event) error {
		if d.IsWeekend() {
			weekend += len(events)
			weekendDays++
		} else {
			weekday += len(events)
			weekdayDays++
		}
		return nil
	})
	perWeekday := float64(weekday) / float64(weekdayDays)
	perWeekend := float64(weekend) / float64(weekendDays)
	if perWeekend > perWeekday/3 {
		t.Errorf("weekends too busy: %.1f vs %.1f events/day", perWeekend, perWeekday)
	}
}

func TestUsersInDeptAndLabels(t *testing.T) {
	g, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	labels := g.Labels()
	if len(labels) == 0 {
		t.Fatal("no labels")
	}
	for _, l := range labels {
		if l.User != g.Scenarios()[0].UserID() {
			t.Errorf("label for unexpected user %s", l.User)
		}
		if l.Day.IsWeekend() {
			t.Errorf("weekend day %v labeled", l.Day)
		}
	}
}

func TestSplitForScenario(t *testing.T) {
	sc := NewScenario2("s2", "X", MustDay("2011-01-07"), MustDay("2011-03-07"))
	trainStart, trainEnd, testStart, testEnd, err := SplitForScenario(sc, 0, DayOf(DatasetEnd))
	if err != nil {
		t.Fatal(err)
	}
	if trainStart != 0 {
		t.Errorf("trainStart = %v", trainStart)
	}
	if trainEnd >= MustDay("2011-01-07") {
		t.Error("training overlaps the anomaly window")
	}
	if testStart != trainEnd+1 {
		t.Error("test does not start right after training")
	}
	if testEnd <= MustDay("2011-03-07") {
		t.Error("testing ends before the anomaly window does")
	}

	// A window too close to the dataset start leaves no training period.
	early := NewScenario1("early", "X", 5, 20)
	if _, _, _, _, err := SplitForScenario(early, 0, 100); err == nil {
		t.Error("no error for a window with no training period")
	}
}

func TestScenariosFromLabels(t *testing.T) {
	labels := []Label{
		{User: "A", Day: 10, Scenario: "s1"},
		{User: "A", Day: 20, Scenario: "s1"},
		{User: "B", Day: 5, Scenario: "s2"},
	}
	scs := ScenariosFromLabels(labels)
	if len(scs) != 2 {
		t.Fatalf("got %d scenarios", len(scs))
	}
	if scs[0].Name() != "s1" || scs[0].UserID() != "A" {
		t.Errorf("first scenario %s/%s", scs[0].Name(), scs[0].UserID())
	}
	ws, we := scs[0].Window()
	if ws != 10 || we != 20 {
		t.Errorf("window %v..%v", ws, we)
	}
}

func TestDefaultConfigShape(t *testing.T) {
	cfg := DefaultConfig()
	if len(cfg.Departments) != 4 || cfg.UsersPerDept != 233 {
		t.Errorf("default config %d depts × %d users", len(cfg.Departments), cfg.UsersPerDept)
	}
	if len(cfg.Scenarios) != 4 {
		t.Errorf("default config has %d scenarios", len(cfg.Scenarios))
	}
	// JPH1910 must be the r6.1-s2 insider, as in the paper.
	if cfg.Scenarios[1].UserID() != "JPH1910" {
		t.Errorf("r6.1-s2 insider is %s", cfg.Scenarios[1].UserID())
	}
}
