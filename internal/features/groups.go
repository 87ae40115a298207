package features

import (
	"fmt"

	"acobe/internal/cert"
)

// Groups is a checked peer-group membership: every user in exactly one
// named group, and no group empty. Its FillDays is the one definition of
// group behavior — each measurement's mean over a group's members — that
// the batch GroupTable, the daemon's day closes and its recovery all run.
type Groups struct {
	membership []int
	inv        []float64 // 1/|g|, the one factor each group's sums are scaled by
}

// CheckMembership is the one range check of a user→group map: one entry
// per user, each in 0..groups-1. The error names the offending user (for
// a short map, the first user it leaves without a group).
func CheckMembership(users []string, groups int, membership []int) error {
	if n := len(membership); n < len(users) {
		return fmt.Errorf("features: user %d (%s) has no group: membership has %d entries for %d users", n, users[n], n, len(users))
	} else if n > len(users) {
		return fmt.Errorf("features: membership has %d entries for %d users", n, len(users))
	}
	for u, g := range membership {
		if g < 0 || g >= groups {
			return fmt.Errorf("features: user %d (%s) in group %d, want 0..%d", u, users[u], g, groups-1)
		}
	}
	return nil
}

// NewGroups checks membership against users and the group names and
// refuses a group without members, naming it.
func NewGroups(users, names []string, membership []int) (*Groups, error) {
	if err := CheckMembership(users, len(names), membership); err != nil {
		return nil, err
	}
	sizes := make([]int, len(names))
	for _, g := range membership {
		sizes[g]++
	}
	inv := make([]float64, len(names))
	for g, n := range sizes {
		if n == 0 {
			return nil, fmt.Errorf("features: group %q has no members", names[g])
		}
		inv[g] = 1 / float64(n)
	}
	return &Groups{membership: append([]int(nil), membership...), inv: inv}, nil
}

// FillDays writes the group means of days [from, to] into g's cells of
// the (feature, frame) planes plo..phi-1 (plane p is feature p/frames,
// frame p%frames). member(u) returns the table holding user u and u's row
// in it; every such table and g have the same features and frames and
// hold days [from, to], and g's cells there are zero. Each group's
// members are added into its cells in ascending user order, days
// innermost, and each cell is then scaled by 1/|g| once — so a mean does
// not depend on how the users are split over tables, and callers filling
// disjoint planes of one g may run concurrently.
func (gs *Groups) FillDays(g *Table, from, to cert.Day, plo, phi int, member func(u int) (*Table, int)) {
	days := int(to-from) + 1
	for u, grp := range gs.membership {
		t, r := member(u)
		src := t.offset(r, 0, 0, from) + plo*t.capDays
		dst := g.offset(grp, 0, 0, from) + plo*g.capDays
		for p := plo; p < phi; p++ {
			s, d := t.data[src:src+days], g.data[dst:dst+days]
			for i, v := range s {
				d[i] += v
			}
			src += t.capDays
			dst += g.capDays
		}
	}
	for grp, inv := range gs.inv {
		dst := g.offset(grp, 0, 0, from) + plo*g.capDays
		for p := plo; p < phi; p++ {
			d := g.data[dst : dst+days]
			for i := range d {
				d[i] *= inv
			}
			dst += g.capDays
		}
	}
}
