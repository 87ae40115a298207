package cert

import (
	"fmt"
	"sort"
	"time"

	"acobe/internal/mathx"
)

// EnvChange is an organization- or department-wide environmental change
// (e.g. a new internal service) that causes correlated behavioral bursts
// across many users — the situations where group-correlation signals keep
// ACOBE from raising false positives.
type EnvChange struct {
	// Start and Duration bound the change window.
	Start    Day
	Duration int
	// Dept limits the change to one department; empty means org-wide.
	Dept string
	// Domain is the new service domain users suddenly interact with.
	Domain string
	// UploadsPerDay and VisitsPerDay are the per-user extra Poisson rates
	// during the window.
	UploadsPerDay float64
	VisitsPerDay  float64
}

// Active reports whether the change affects department dept on day d.
func (e EnvChange) Active(d Day, dept string) bool {
	if d < e.Start || d >= e.Start+Day(e.Duration) {
		return false
	}
	return e.Dept == "" || e.Dept == dept
}

// Config parameterizes the synthesizer. The zero value is not useful;
// start from DefaultConfig.
type Config struct {
	Seed         uint64
	Departments  []string
	UsersPerDept int
	Start, End   Day
	EnvChanges   []EnvChange
	// Scenarios lists the threat scenarios to inject. DefaultConfig
	// installs the paper's four instances (r6.1/r6.2 × S1/S2).
	Scenarios []Scenario
}

// DefaultDepartments are the four third-tier organizational units hosting
// the four scenario instances.
var DefaultDepartments = []string{"Research", "Engineering", "Finance", "Marketing"}

// DefaultConfig mirrors the paper's evaluation setup: ~929 users across 4
// departments (925 normal + 4 abnormal), full r6 date span, four scenario
// instances, plus periodic environmental changes.
func DefaultConfig() Config {
	cfg := Config{
		Seed:         42,
		Departments:  append([]string(nil), DefaultDepartments...),
		UsersPerDept: 233, // 932 total; 4 are scenario users ⇒ 928 normal
		Start:        0,
		End:          DayOf(DatasetEnd),
	}
	cfg.EnvChanges = DefaultEnvChanges()
	cfg.Scenarios = DefaultScenarios(cfg.Departments, cfg.UsersPerDept)
	return cfg
}

// SmallConfig returns a reduced organization for tests and examples.
func SmallConfig(usersPerDept int) Config {
	cfg := DefaultConfig()
	cfg.UsersPerDept = usersPerDept
	cfg.Scenarios = DefaultScenarios(cfg.Departments, usersPerDept)
	return cfg
}

// DefaultEnvChanges returns a set of environmental changes spread over the
// dataset span: portal moves and new-service rollouts that hit whole
// departments at once, in both training and testing periods.
func DefaultEnvChanges() []EnvChange {
	return []EnvChange{
		{Start: MustDay("2010-03-15"), Duration: 5, Domain: "newportal.dtaa.com", UploadsPerDay: 3, VisitsPerDay: 12},
		{Start: MustDay("2010-06-07"), Duration: 4, Dept: "Engineering", Domain: "ci.dtaa.com", UploadsPerDay: 4, VisitsPerDay: 15},
		{Start: MustDay("2010-09-20"), Duration: 5, Domain: "benefits.dtaa.com", UploadsPerDay: 2, VisitsPerDay: 10},
		{Start: MustDay("2010-12-13"), Duration: 4, Domain: "review.dtaa.com", UploadsPerDay: 3, VisitsPerDay: 10},
		{Start: MustDay("2011-01-24"), Duration: 5, Dept: "Research", Domain: "lab.dtaa.com", UploadsPerDay: 3, VisitsPerDay: 12},
		{Start: MustDay("2011-02-14"), Duration: 4, Domain: "survey.dtaa.com", UploadsPerDay: 2, VisitsPerDay: 8},
		{Start: MustDay("2011-04-11"), Duration: 5, Domain: "training.dtaa.com", UploadsPerDay: 3, VisitsPerDay: 10},
	}
}

// Generator synthesizes the event stream. Days must be consumed in order
// via Stream, because user entity pools evolve as days pass (that evolution
// is what makes "new-op" features meaningful).
type Generator struct {
	cfg      Config
	users    []User
	profiles map[string]*profile
	scenByID map[string]Scenario
}

// New builds a generator. The same Config always yields the same dataset.
func New(cfg Config) (*Generator, error) {
	if len(cfg.Departments) == 0 {
		return nil, fmt.Errorf("cert: config needs at least one department")
	}
	if cfg.UsersPerDept <= 0 {
		return nil, fmt.Errorf("cert: UsersPerDept must be positive, got %d", cfg.UsersPerDept)
	}
	if cfg.End <= cfg.Start {
		return nil, fmt.Errorf("cert: empty day span [%v, %v]", cfg.Start, cfg.End)
	}
	g := &Generator{
		cfg:      cfg,
		profiles: make(map[string]*profile),
		scenByID: make(map[string]Scenario),
	}
	root := mathx.NewRNG(cfg.Seed)
	for di, dept := range cfg.Departments {
		for j := 0; j < cfg.UsersPerDept; j++ {
			u := makeUser(di, dept, j)
			g.users = append(g.users, u)
			g.profiles[u.ID] = newProfile(u, root.ForkNamed(u.ID))
		}
	}
	for _, sc := range cfg.Scenarios {
		uid := sc.UserID()
		p, ok := g.profiles[uid]
		if !ok {
			return nil, fmt.Errorf("cert: scenario %s targets unknown user %s", sc.Name(), uid)
		}
		sc.Prepare(p)
		g.scenByID[uid] = sc
	}
	return g, nil
}

// makeUser builds the deterministic directory entry for user j of dept di.
// The r6.1-Scenario-2 user carries the paper's example ID JPH1910.
func makeUser(di int, dept string, j int) User {
	id := fmt.Sprintf("%c%c%c%04d", 'A'+di, 'A'+(j/26)%26, 'A'+j%26, 1000+j)
	if dept == "Engineering" && j == 0 {
		id = "JPH1910"
	}
	return User{
		ID:         id,
		Name:       fmt.Sprintf("User %s", id),
		Email:      fmt.Sprintf("%s@dtaa.com", id),
		Role:       "Employee",
		Department: dept,
		PC:         fmt.Sprintf("PC-%d%04d", di, j),
	}
}

// Users returns the LDAP directory, ordered by department then ID.
func (g *Generator) Users() []User {
	out := append([]User(nil), g.users...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Department != out[j].Department {
			return out[i].Department < out[j].Department
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Departments returns the department names in config order.
func (g *Generator) Departments() []string { return g.cfg.Departments }

// Labels returns the ground-truth abnormal (user, day) labels of every
// injected scenario.
func (g *Generator) Labels() []Label {
	var out []Label
	for _, sc := range g.cfg.Scenarios {
		out = append(out, sc.Labels()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].User != out[j].User {
			return out[i].User < out[j].User
		}
		return out[i].Day < out[j].Day
	})
	return out
}

// Scenarios returns the injected scenarios.
func (g *Generator) Scenarios() []Scenario { return g.cfg.Scenarios }

// Span returns the configured [start, end] day range.
func (g *Generator) Span() (Day, Day) { return g.cfg.Start, g.cfg.End }

// Stream generates events day by day over [from, to] (clamped to the
// configured span) and hands each day's batch to fn. Events within a day
// are in no particular order. Stream must be called with from equal to the
// configured start to keep entity pools consistent; use a fresh Generator
// for re-runs.
func (g *Generator) Stream(fn func(Day, []Event) error) error {
	for d := g.cfg.Start; d <= g.cfg.End; d++ {
		var events []Event
		for _, u := range g.users {
			events = append(events, g.userDay(u, d)...)
		}
		if err := fn(d, events); err != nil {
			return fmt.Errorf("cert: stream day %v: %w", d, err)
		}
	}
	return nil
}

// UserDay generates one user's events for one day — the per-user
// granularity behind Stream, exported so load generators can partition and
// pace generation without materializing a whole organization-day. The same
// ordering rule as Stream applies per user (days nondecreasing, because
// entity pools evolve), but distinct users are independent: each call
// mutates only that user's profile, so concurrent UserDay calls are safe
// as long as no two goroutines share a user.
func (g *Generator) UserDay(u User, d Day) []Event { return g.userDay(u, d) }

// userDay generates one user's events for one day.
func (g *Generator) userDay(u User, d Day) []Event {
	p := g.profiles[u.ID]
	rng := mathx.NewRNG(g.cfg.Seed ^ hashUserDay(u.ID, d))
	var events []Event

	sc := g.scenByID[u.ID]
	suppress := sc != nil && sc.Suppress(d)

	if !suppress {
		events = append(events, g.normalDay(p, d, rng)...)
		events = append(events, g.envChangeEvents(p, d, rng)...)
	}
	if sc != nil {
		events = append(events, sc.Inject(p, d, rng)...)
	}
	return events
}

// hashUserDay mixes a user ID and day into a stable seed.
func hashUserDay(user string, d Day) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(user); i++ {
		h ^= uint64(user[i])
		h *= 1099511628211
	}
	h ^= uint64(int64(d)) + 0x9e3779b97f4a7c15
	h *= 1099511628211
	return h
}

// eventTime builds a timestamp on day d at the given hour with random
// minutes/seconds.
func eventTime(d Day, hour int, rng *mathx.RNG) time.Time {
	return d.Date().Add(time.Duration(hour)*time.Hour +
		time.Duration(rng.Intn(60))*time.Minute +
		time.Duration(rng.Intn(60))*time.Second)
}

// normalDay emits the user's habitual activity for day d.
func (g *Generator) normalDay(p *profile, d Day, rng *mathx.RNG) []Event {
	factor := p.dayFactor(d)
	if factor == 0 {
		return nil
	}
	var events []Event
	u := p.user

	emit := func(count int, off bool, build func(t time.Time) Event) {
		for i := 0; i < count; i++ {
			var hour int
			if off {
				hour = p.offHour(rng)
			} else {
				hour = p.workHour(rng)
			}
			events = append(events, build(eventTime(d, hour, rng)))
		}
	}

	// Each channel emits working-hour activity at its base rate and
	// off-hour activity scaled by the user's habitual off factor.
	type channel struct {
		rate  float64
		build func(t time.Time) Event
	}
	channels := []channel{
		{p.logonRate, func(t time.Time) Event {
			act := ActLogon
			if rng.Bool(0.5) {
				act = ActLogoff
			}
			return Event{Type: EventLogon, Time: t, User: u.ID, PC: u.PC, Activity: act}
		}},
		{p.fileOpenRate, func(t time.Time) Event {
			return Event{Type: EventFile, Time: t, User: u.ID, PC: u.PC, Activity: ActFileOpen,
				FileID: p.pickFile(rng), Direction: pickDir(rng, 0.85)}
		}},
		{p.fileWriteRate, func(t time.Time) Event {
			return Event{Type: EventFile, Time: t, User: u.ID, PC: u.PC, Activity: ActFileWrite,
				FileID: p.pickFile(rng), Direction: pickDir(rng, 0.9)}
		}},
		{p.fileCopyRate, func(t time.Time) Event {
			dir := DirRemoteToLocal
			if rng.Bool(0.5) {
				dir = DirLocalToRemote
			}
			return Event{Type: EventFile, Time: t, User: u.ID, PC: u.PC, Activity: ActFileCopy,
				FileID: p.pickFile(rng), Direction: dir}
		}},
		{p.httpVisitRate, func(t time.Time) Event {
			return Event{Type: EventHTTP, Time: t, User: u.ID, PC: u.PC, Activity: ActVisit,
				Domain: p.pickDomain(rng)}
		}},
		{p.httpDownloadRate, func(t time.Time) Event {
			return Event{Type: EventHTTP, Time: t, User: u.ID, PC: u.PC, Activity: ActDownload,
				Domain: p.pickDomain(rng), FileType: p.pickUploadType(rng)}
		}},
		{p.httpUploadRate, func(t time.Time) Event {
			return Event{Type: EventHTTP, Time: t, User: u.ID, PC: u.PC, Activity: ActUpload,
				Domain: p.pickDomain(rng), FileType: p.pickUploadType(rng)}
		}},
		{p.emailRate, func(t time.Time) Event {
			return Event{Type: EventEmail, Time: t, User: u.ID, PC: u.PC, Activity: ActSend,
				Recipient: mathx.Pick(rng, p.recipients)}
		}},
	}
	for _, ch := range channels {
		emit(rng.Poisson(ch.rate*factor), false, ch.build)
		emit(rng.Poisson(ch.rate*factor*p.offFactor), true, ch.build)
	}

	// Removable-device usage for habitual device users: paired
	// connect/disconnect, mostly on the user's own PC.
	if p.deviceRate > 0 {
		n := rng.Poisson(p.deviceRate * factor)
		for i := 0; i < n; i++ {
			pc := u.PC
			if rng.Bool(0.02) {
				pc = fmt.Sprintf("PC-X%04d", rng.Intn(2000))
			}
			t := eventTime(d, p.workHour(rng), rng)
			events = append(events,
				Event{Type: EventDevice, Time: t, User: u.ID, PC: pc, Activity: ActConnect},
				Event{Type: EventDevice, Time: t.Add(time.Duration(5+rng.Intn(110)) * time.Minute), User: u.ID, PC: pc, Activity: ActDisconnect},
			)
		}
	}
	return events
}

// pickDir returns DirLocal with probability pLocal, else DirRemote.
func pickDir(rng *mathx.RNG, pLocal float64) string {
	if rng.Bool(pLocal) {
		return DirLocal
	}
	return DirRemote
}

// envChangeEvents emits the correlated extra traffic of any active
// environmental change.
func (g *Generator) envChangeEvents(p *profile, d Day, rng *mathx.RNG) []Event {
	if p.dayFactor(d) == 0 || d.IsWeekend() || IsHoliday(d) {
		return nil
	}
	var events []Event
	u := p.user
	for _, ec := range g.cfg.EnvChanges {
		if !ec.Active(d, u.Department) {
			continue
		}
		for i := 0; i < rng.Poisson(ec.VisitsPerDay); i++ {
			events = append(events, Event{Type: EventHTTP, Time: eventTime(d, p.workHour(rng), rng),
				User: u.ID, PC: u.PC, Activity: ActVisit, Domain: ec.Domain})
		}
		for i := 0; i < rng.Poisson(ec.UploadsPerDay); i++ {
			events = append(events, Event{Type: EventHTTP, Time: eventTime(d, p.workHour(rng), rng),
				User: u.ID, PC: u.PC, Activity: ActUpload, Domain: ec.Domain, FileType: "doc"})
		}
	}
	return events
}
