package serve

import (
	"strings"
	"testing"

	"acobe/internal/baseline"
	"acobe/internal/cert"
	"acobe/internal/deviation"
	"acobe/internal/features"
)

// TestMembershipRefusals is the one refusal table for a user→group map:
// every constructor that takes one refuses a short map, a user outside
// every group (-1) and a group index past the last, naming the user; the
// two that compute group means (GroupTable and the daemon) also refuse a
// group without members, naming the group.
func TestMembershipRefusals(t *testing.T) {
	const last = cert.Day(29)
	tab, err := features.NewTable(testUsers, testFeats, 2, 0, last)
	if err != nil {
		t.Fatal(err)
	}
	for u := range testUsers {
		for f := range testFeats {
			for fr := 0; fr < 2; fr++ {
				for d := cert.Day(0); d <= last; d++ {
					tab.Add(u, f, fr, d, gen(u, f, fr, d))
				}
			}
		}
	}
	grpTab, err := tab.GroupTable(testGroups, testMember)
	if err != nil {
		t.Fatal(err)
	}
	ind, err := deviation.ComputeField(tab, testDevCfg())
	if err != nil {
		t.Fatal(err)
	}
	grp, err := deviation.ComputeField(grpTab, testDevCfg())
	if err != nil {
		t.Fatal(err)
	}
	aspect := features.Aspect{Name: "a", Features: testFeats}

	constructors := []struct {
		name  string
		means bool // computes group means, so an empty group is refused too
		build func(member []int) error
	}{
		{"GroupTable", true, func(member []int) error {
			_, err := tab.GroupTable(testGroups, member)
			return err
		}},
		{"serve.New", true, func(member []int) error {
			s, err := New(Config{
				Users:           testUsers,
				Groups:          testGroups,
				Membership:      member,
				Deviation:       testDevCfg(),
				IngestorFactory: func([]string, cert.Day) (Ingestor, error) { return newStubIngestor(t, 0), nil },
				DetectorOptions: testDetOpts(),
				QueueSize:       4,
			})
			if err == nil {
				shutdown(t, s)
			}
			return err
		}},
		{"baseline.New", false, func(member []int) error {
			cfg := baseline.NewOneDayConfig()
			cfg.Aspects = []features.Aspect{aspect}
			_, err := baseline.New(cfg, tab, grpTab, member, 0, last)
			return err
		}},
		{"deviation.NewBuilder", false, func(member []int) error {
			_, err := deviation.NewBuilder(ind, grp, member, aspect)
			return err
		}},
	}
	refusals := []struct {
		name   string
		member []int
		names  string // the user or group the error must name
		means  bool   // refused only where group means are computed
	}{
		{"short", []int{0, 0, 0, 1, 1}, testUsers[5], false},
		{"ungrouped", []int{0, 0, 0, 1, -1, 1}, testUsers[4], false},
		{"past last group", []int{0, 0, 0, 1, 2, 1}, testUsers[4], false},
		{"empty group", []int{0, 0, 0, 0, 0, 0}, testGroups[1], true},
	}
	for _, c := range constructors {
		if err := c.build(testMember); err != nil {
			t.Fatalf("%s refuses the valid membership: %v", c.name, err)
		}
		for _, r := range refusals {
			if r.means && !c.means {
				continue
			}
			err := c.build(r.member)
			if err == nil || !strings.Contains(err.Error(), r.names) {
				t.Errorf("%s, %s membership: got %v, want an error naming %s", c.name, r.name, err, r.names)
			}
		}
	}
}
