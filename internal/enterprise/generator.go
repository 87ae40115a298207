package enterprise

import (
	"fmt"
	"time"

	"acobe/internal/cert"
	"acobe/internal/logstore"
	"acobe/internal/mathx"
)

// Employee is one monitored account. Per the paper, service and privileged
// accounts are excluded; computer/email/domain accounts are integrated
// into the employee account.
type Employee struct {
	ID   string // e.g. "emp042"
	Host string // primary workstation
}

// Attack injects malicious activity into one employee's record stream.
// Implementations live in the attack package.
type Attack interface {
	// Name identifies the attack ("zeus", "ransomware").
	Name() string
	// Victim is the attacked employee ID.
	Victim() string
	// Day0 is the attack day (paper: Feb 2).
	Day0() cert.Day
	// Inject returns the attack's records for the employee on day d.
	Inject(victim Employee, d cert.Day, rng *mathx.RNG) []logstore.Record
}

// Config parameterizes the simulator.
type Config struct {
	Seed      uint64
	Employees int
	// Start..End span the dataset (paper: seven months, six training +
	// one testing).
	Start, End cert.Day
	// EnvChangeDay is the organization-wide change (rise in Command,
	// drop in HTTP for everyone) the paper observes on Jan 26.
	EnvChangeDay cert.Day
	// Attacks to inject (typically one victim, one attack per dataset).
	Attacks []Attack
}

// Span constants: seven months ending 2011-02-28, attack window in the
// final month.
var (
	DefaultStart        = cert.MustDay("2010-08-01")
	DefaultEnd          = cert.MustDay("2011-02-28")
	DefaultTrainEnd     = cert.MustDay("2011-01-31")
	DefaultEnvChangeDay = cert.MustDay("2011-01-26")
	DefaultAttackDay    = cert.MustDay("2011-02-02")
)

// DefaultConfig returns the paper's case-study environment: 246 employees
// over seven months with the Jan-26 environmental change.
func DefaultConfig() Config {
	return Config{
		Seed:         2021,
		Employees:    246,
		Start:        DefaultStart,
		End:          DefaultEnd,
		EnvChangeDay: DefaultEnvChangeDay,
	}
}

// profile is one employee's habitual rates and entity pools.
type profile struct {
	emp Employee

	fileRate   float64
	shareRate  float64
	cmdRate    float64 // most employees barely execute processes on servers
	psRate     float64
	cfgRate    float64
	acctRate   float64
	resRate    float64
	httpRate   float64
	failRate   float64
	uploadRate float64
	logonRate  float64
	remoteRate float64

	offFactor     float64
	weekendFactor float64
	workStart     int
	workEnd       int
	newEntityProb float64

	files     []string
	processes []string
	regKeys   []string
	domains   []string
	hosts     []string
}

var sharedDomains = []string{
	"intranet.corp.example", "mail.corp.example", "sso.corp.example",
	"updates.vendor.example", "cdn.provider.example", "search.web.example",
	"news.web.example", "docs.web.example",
}

func newProfile(emp Employee, rng *mathx.RNG) *profile {
	p := &profile{
		emp:           emp,
		fileRate:      10 + 25*rng.Float64(),
		shareRate:     1 + 4*rng.Float64(),
		cmdRate:       0.1 + 0.6*rng.Float64(),
		psRate:        0.02 + 0.2*rng.Float64(),
		cfgRate:       0.1 + 0.5*rng.Float64(),
		acctRate:      0.01 + 0.05*rng.Float64(),
		resRate:       0.05 + 0.3*rng.Float64(),
		httpRate:      30 + 60*rng.Float64(),
		failRate:      0.5 + 2*rng.Float64(),
		uploadRate:    0.2 + 1.0*rng.Float64(),
		logonRate:     2 + 3*rng.Float64(),
		remoteRate:    0.1 + 0.5*rng.Float64(),
		offFactor:     0.05 + 0.1*rng.Float64(),
		weekendFactor: 0.02 + 0.06*rng.Float64(),
		workStart:     7 + rng.Intn(3),
		newEntityProb: 0.01 + 0.015*rng.Float64(),
	}
	p.workEnd = p.workStart + 9
	if p.workEnd > 18 {
		p.workEnd = 18
	}
	nf := 60 + rng.Intn(80)
	for i := 0; i < nf; i++ {
		p.files = append(p.files, fmt.Sprintf(`\\fs01\%s\doc%04d.docx`, emp.ID, i))
	}
	for i := 0; i < 6+rng.Intn(8); i++ {
		p.processes = append(p.processes, fmt.Sprintf(`C:\Program Files\App%02d\app%02d.exe`, i, i))
	}
	for i := 0; i < 10+rng.Intn(10); i++ {
		p.regKeys = append(p.regKeys, fmt.Sprintf(`HKCU\Software\App%02d\Setting%d`, rng.Intn(12), i))
	}
	p.domains = append(p.domains, sharedDomains...)
	for i := 0; i < 10+rng.Intn(25); i++ {
		p.domains = append(p.domains, fmt.Sprintf("site%04d.web.example", rng.Intn(4000)))
	}
	p.hosts = []string{emp.Host, "TS01.corp.example"}
	return p
}

func (p *profile) dayFactor(d cert.Day) float64 {
	if d.IsWeekend() || cert.IsHoliday(d) {
		return p.weekendFactor
	}
	if cert.IsBusyday(d) {
		return 1.5
	}
	return 1
}

func (p *profile) pick(rng *mathx.RNG, pool *[]string, mint func(i int) string) string {
	if rng.Bool(p.newEntityProb) {
		s := mint(len(*pool))
		*pool = append(*pool, s)
		return s
	}
	return mathx.Pick(rng, *pool)
}

// Generator produces each day's records for every employee.
type Generator struct {
	cfg      Config
	emps     []Employee
	profiles map[string]*profile
	attacks  map[string][]Attack
}

// New builds the simulator.
func New(cfg Config) (*Generator, error) {
	if cfg.Employees < 1 {
		return nil, fmt.Errorf("enterprise: need at least one employee")
	}
	if cfg.End <= cfg.Start {
		return nil, fmt.Errorf("enterprise: empty span [%v, %v]", cfg.Start, cfg.End)
	}
	g := &Generator{
		cfg:      cfg,
		profiles: make(map[string]*profile, cfg.Employees),
		attacks:  make(map[string][]Attack),
	}
	root := mathx.NewRNG(cfg.Seed)
	for i := 0; i < cfg.Employees; i++ {
		emp := Employee{
			ID:   fmt.Sprintf("emp%03d", i+1),
			Host: fmt.Sprintf("WS-%03d.corp.example", i+1),
		}
		g.emps = append(g.emps, emp)
		g.profiles[emp.ID] = newProfile(emp, root.ForkNamed(emp.ID))
	}
	for _, a := range cfg.Attacks {
		if _, ok := g.profiles[a.Victim()]; !ok {
			return nil, fmt.Errorf("enterprise: attack %s targets unknown employee %s", a.Name(), a.Victim())
		}
		g.attacks[a.Victim()] = append(g.attacks[a.Victim()], a)
	}
	return g, nil
}

// Employees returns the monitored accounts in ID order.
func (g *Generator) Employees() []Employee { return append([]Employee(nil), g.emps...) }

// EmployeeIDs returns just the IDs in order.
func (g *Generator) EmployeeIDs() []string {
	out := make([]string, len(g.emps))
	for i, e := range g.emps {
		out[i] = e.ID
	}
	return out
}

// Span returns the configured day range.
func (g *Generator) Span() (cert.Day, cert.Day) { return g.cfg.Start, g.cfg.End }

// Stream generates records day by day in order, handing each batch to fn.
func (g *Generator) Stream(fn func(cert.Day, []logstore.Record) error) error {
	for d := g.cfg.Start; d <= g.cfg.End; d++ {
		var recs []logstore.Record
		for _, emp := range g.emps {
			recs = append(recs, g.employeeDay(emp, d)...)
		}
		if err := fn(d, recs); err != nil {
			return fmt.Errorf("enterprise: stream day %v: %w", d, err)
		}
	}
	return nil
}

// StreamTo pushes all records through a logstore pipeline into the store.
func (g *Generator) StreamTo(store *logstore.Store, workers int) error {
	pipe := logstore.NewPipeline(store, workers, 0)
	defer pipe.Close()
	return g.Stream(func(_ cert.Day, recs []logstore.Record) error {
		for _, r := range recs {
			if err := pipe.Submit(r); err != nil {
				return err
			}
		}
		return nil
	})
}

func (g *Generator) employeeDay(emp Employee, d cert.Day) []logstore.Record {
	p := g.profiles[emp.ID]
	rng := mathx.NewRNG(g.cfg.Seed ^ hashIDDay(emp.ID, d))
	recs := g.normalDay(p, d, rng)
	for _, a := range g.attacks[emp.ID] {
		recs = append(recs, a.Inject(emp, d, rng)...)
	}
	return recs
}

func hashIDDay(id string, d cert.Day) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	h ^= uint64(int64(d)) + 0x9e3779b97f4a7c15
	h *= 1099511628211
	return h
}

func (g *Generator) at(p *profile, d cert.Day, off bool, rng *mathx.RNG) time.Time {
	var hour int
	if off {
		hour = 18 + rng.Intn(12)
		if hour >= 24 {
			hour -= 24
		}
	} else {
		hour = p.workStart + rng.Intn(p.workEnd-p.workStart)
	}
	return d.Date().Add(time.Duration(hour)*time.Hour +
		time.Duration(rng.Intn(3600))*time.Second)
}

// normalDay emits the employee's habitual records, including the Jan-26
// environmental change: from EnvChangeDay on, everyone's Command activity
// rises (a newly deployed endpoint agent spawning processes) and HTTP
// success volume drops (a proxy cutover logging less traffic).
func (g *Generator) normalDay(p *profile, d cert.Day, rng *mathx.RNG) []logstore.Record {
	factor := p.dayFactor(d)
	if factor == 0 {
		return nil
	}
	var recs []logstore.Record
	emp := p.emp

	envCmdBoost := 0.0
	httpScale := 1.0
	if g.cfg.EnvChangeDay > 0 && d >= g.cfg.EnvChangeDay {
		envCmdBoost = 6
		httpScale = 0.6
	}

	emit := func(rate float64, build func(t time.Time) logstore.Record) {
		for i := 0; i < rng.Poisson(rate*factor); i++ {
			recs = append(recs, build(g.at(p, d, false, rng)))
		}
		for i := 0; i < rng.Poisson(rate*factor*p.offFactor); i++ {
			recs = append(recs, build(g.at(p, d, true, rng)))
		}
	}

	// File aspect.
	emit(p.fileRate, func(t time.Time) logstore.Record {
		return logstore.Record{Time: t, User: emp.ID, Host: emp.Host, Channel: logstore.ChannelSysmon,
			EventID: 11, Action: "FileWrite", Object: p.pick(rng, &p.files, func(i int) string {
				return fmt.Sprintf(`\\fs01\%s\doc%04d.docx`, emp.ID, i)
			}), Status: "success"}
	})
	emit(p.shareRate, func(t time.Time) logstore.Record {
		return logstore.Record{Time: t, User: emp.ID, Host: emp.Host, Channel: logstore.ChannelSecurity,
			EventID: 5140, Action: "ShareAccess", Object: `\\fs01\public`, Status: "success"}
	})

	// Command aspect (rare for most employees; paper's victim "barely has
	// any activities in the Command aspect").
	emit(p.cmdRate+envCmdBoost, func(t time.Time) logstore.Record {
		obj := p.pick(rng, &p.processes, func(i int) string {
			return fmt.Sprintf(`C:\Program Files\App%02d\app%02d.exe`, i, i)
		})
		if envCmdBoost > 0 {
			obj = `C:\Program Files\EndpointAgent\agent.exe`
		}
		return logstore.Record{Time: t, User: emp.ID, Host: emp.Host, Channel: logstore.ChannelSysmon,
			EventID: 1, Action: "ProcessCreate", Object: obj, Status: "success"}
	})
	emit(p.psRate, func(t time.Time) logstore.Record {
		return logstore.Record{Time: t, User: emp.ID, Host: emp.Host, Channel: logstore.ChannelPowerShell,
			EventID: 4104, Action: "PowerShell", Object: "Get-Mailbox.ps1", Status: "success"}
	})

	// Config aspect.
	emit(p.cfgRate, func(t time.Time) logstore.Record {
		return logstore.Record{Time: t, User: emp.ID, Host: emp.Host, Channel: logstore.ChannelSysmon,
			EventID: 13, Action: "RegistrySet", Object: p.pick(rng, &p.regKeys, func(i int) string {
				return fmt.Sprintf(`HKCU\Software\App%02d\Setting%d`, rng.Intn(12), i)
			}), Status: "success"}
	})
	emit(p.acctRate, func(t time.Time) logstore.Record {
		return logstore.Record{Time: t, User: emp.ID, Host: emp.Host, Channel: logstore.ChannelSecurity,
			EventID: 4723, Action: "AccountMod", Object: emp.ID, Status: "success"}
	})

	// Resource aspect.
	emit(p.resRate, func(t time.Time) logstore.Record {
		return logstore.Record{Time: t, User: emp.ID, Host: emp.Host, Channel: logstore.ChannelSecurity,
			EventID: 4698, Action: "ScheduledTask", Object: "BackupTask", Status: "success"}
	})

	// HTTP statistical aspect (proxy + DNS).
	emit(p.httpRate*httpScale, func(t time.Time) logstore.Record {
		return logstore.Record{Time: t, User: emp.ID, Host: emp.Host, Channel: logstore.ChannelProxy,
			Action: "HTTPRequest", Object: p.pick(rng, &p.domains, func(i int) string {
				return fmt.Sprintf("site%04d.web.example", rng.Intn(100000))
			}), Status: "success"}
	})
	emit(p.failRate, func(t time.Time) logstore.Record {
		return logstore.Record{Time: t, User: emp.ID, Host: emp.Host, Channel: logstore.ChannelProxy,
			Action: "HTTPRequest", Object: mathx.Pick(rng, p.domains), Status: "failure"}
	})
	emit(p.uploadRate, func(t time.Time) logstore.Record {
		return logstore.Record{Time: t, User: emp.ID, Host: emp.Host, Channel: logstore.ChannelProxy,
			Action: "HTTPUpload", Object: mathx.Pick(rng, p.domains), Status: "success"}
	})

	// Logon statistical aspect.
	emit(p.logonRate, func(t time.Time) logstore.Record {
		status := "success"
		if rng.Bool(0.05) {
			status = "failure"
		}
		return logstore.Record{Time: t, User: emp.ID, Host: mathx.Pick(rng, p.hosts),
			Channel: logstore.ChannelSecurity, EventID: 4624, Action: "Logon", Object: emp.Host, Status: status}
	})
	emit(p.remoteRate, func(t time.Time) logstore.Record {
		return logstore.Record{Time: t, User: emp.ID, Host: "VPN01.corp.example",
			Channel: logstore.ChannelSecurity, EventID: 4624, Action: "RemoteLogon", Object: "VPN01", Status: "success"}
	})
	return recs
}
