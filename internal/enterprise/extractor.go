package enterprise

import (
	"fmt"
	"strings"

	"acobe/internal/cert"
	"acobe/internal/features"
	"acobe/internal/logstore"
)

// categoryOf maps a record to its predictable-aspect category, or "".
func categoryOf(r logstore.Record) string {
	switch r.Action {
	case "FileWrite", "FileRead", "FileDelete", "FileCreate", "ShareAccess":
		return "file"
	case "ProcessCreate", "PowerShell":
		return "command"
	case "RegistrySet", "RegistryDelete", "AccountMod":
		return "config"
	case "ScheduledTask", "ServiceInstall", "DriverLoad":
		return "resource"
	default:
		return ""
	}
}

// Extractor turns daily record batches into the 27-feature measurement
// table. Days must arrive in order (the "new" features track first-seen
// objects, exactly like the CERT extractor).
type Extractor struct {
	table   *features.Table
	lastDay cert.Day
	started bool

	// Per-user, per-category first-seen object sets.
	seen map[string]map[int]map[string]bool // category → user → objects

	idx map[string]int
}

// NewExtractor builds an extractor over employee IDs for the day span.
func NewExtractor(userIDs []string, start, end cert.Day) (*Extractor, error) {
	table, err := features.NewTable(userIDs, FeatureNames(), cert.NumTimeframes, start, end)
	if err != nil {
		return nil, fmt.Errorf("enterprise: new extractor: %w", err)
	}
	x := &Extractor{
		table: table,
		seen:  make(map[string]map[int]map[string]bool),
		idx:   make(map[string]int),
	}
	for _, cat := range []string{"file", "command", "config", "resource", "domain"} {
		x.seen[cat] = make(map[int]map[string]bool)
	}
	for _, f := range FeatureNames() {
		x.idx[f] = table.FeatureIndex(f)
	}
	return x, nil
}

// Table returns the measurement table.
func (x *Extractor) Table() *features.Table { return x.table }

// dayState accumulates per-day distinct-object sets that become "unique"
// counts and feed the first-seen trackers at day end.
type dayState struct {
	objects map[string]map[int]map[string]bool // category → user → today's objects
	hosts   map[int]map[string]bool            // logon hosts per user
	domains map[int]map[string]bool            // distinct domains per user
}

func newDayState() *dayState {
	s := &dayState{
		objects: make(map[string]map[int]map[string]bool),
		hosts:   make(map[int]map[string]bool),
		domains: make(map[int]map[string]bool),
	}
	for _, cat := range []string{"file", "command", "config", "resource", "domain"} {
		s.objects[cat] = make(map[int]map[string]bool)
	}
	return s
}

func markIn(m map[int]map[string]bool, u int, key string) bool {
	set, ok := m[u]
	if !ok {
		set = make(map[string]bool)
		m[u] = set
	}
	if set[key] {
		return false
	}
	set[key] = true
	return true
}

// Consume processes one day's records.
func (x *Extractor) Consume(d cert.Day, recs []logstore.Record) error {
	if x.started && d <= x.lastDay {
		return fmt.Errorf("enterprise: days must be consumed in order (got %v after %v)", d, x.lastDay)
	}
	x.started = true
	x.lastDay = d

	st := newDayState()
	for _, r := range recs {
		u := x.table.UserIndex(r.User)
		if u < 0 {
			continue
		}
		frame := int(cert.TimeframeOfHour(r.Time.Hour()))
		if cat := categoryOf(r); cat != "" {
			x.consumePredictable(cat, r, u, frame, d, st)
			continue
		}
		switch r.Action {
		case "HTTPRequest", "HTTPUpload", "DNSQuery":
			x.consumeHTTP(r, u, frame, d, st)
		case "Logon", "RemoteLogon":
			x.consumeLogon(r, u, frame, d, st)
		}
	}

	// Merge today's objects into the first-seen history. The history
	// outlives the day, so it keeps its own copy of each key: a record's
	// Object may be a slice of something larger (the daemon decodes a
	// record's strings into one allocation).
	for cat, users := range st.objects {
		for u, set := range users {
			hist, ok := x.seen[cat][u]
			if !ok {
				hist = make(map[string]bool)
				x.seen[cat][u] = hist
			}
			for k := range set {
				if !hist[k] {
					hist[strings.Clone(k)] = true
				}
			}
		}
	}
	return nil
}

// aspect feature tuples per category: count, unique, new, extra.
var catFeatures = map[string][4]string{
	"file":     {FeatFileEvents, FeatFileUnique, FeatFileNew, FeatFileShares},
	"command":  {FeatCmdProcesses, FeatCmdUnique, FeatCmdNew, FeatCmdPowerShell},
	"config":   {FeatCfgRegistry, FeatCfgUnique, FeatCfgNew, FeatCfgAccountMods},
	"resource": {FeatResEvents, FeatResUnique, FeatResNew, FeatResServices},
}

func (x *Extractor) consumePredictable(cat string, r logstore.Record, u, frame int, d cert.Day, st *dayState) {
	f := catFeatures[cat]
	count, unique, newf, extra := f[0], f[1], f[2], f[3]

	isExtra := false
	switch cat {
	case "file":
		isExtra = r.Action == "ShareAccess"
	case "command":
		isExtra = r.Action == "PowerShell"
	case "config":
		isExtra = r.Action == "AccountMod"
	case "resource":
		isExtra = r.Action == "ServiceInstall"
	}
	if isExtra {
		x.add(extra, u, frame, d, 1)
	}
	// "processes" counts process creations only; PowerShell has its own
	// counter. Everything else counts every event in the category.
	if cat != "command" || !isExtra {
		x.add(count, u, frame, d, 1)
	}
	if markIn(st.objects[cat], u, r.Object) {
		x.add(unique, u, frame, d, 1)
		if !x.seen[cat][u][r.Object] {
			x.add(newf, u, frame, d, 1)
		}
	}
}

func (x *Extractor) consumeHTTP(r logstore.Record, u, frame int, d cert.Day, st *dayState) {
	if r.Action == "HTTPUpload" {
		x.add(FeatHTTPUploads, u, frame, d, 1)
	}
	isNewDomain := false
	if markIn(st.domains, u, r.Object) {
		x.add(FeatHTTPUniqueDom, u, frame, d, 1)
	}
	if !x.seen["domain"][u][r.Object] {
		isNewDomain = true
		markIn(st.objects["domain"], u, r.Object)
	}
	if r.Status == "failure" {
		x.add(FeatHTTPFail, u, frame, d, 1)
		if isNewDomain {
			x.add(FeatHTTPFailNew, u, frame, d, 1)
		}
		return
	}
	x.add(FeatHTTPSuccess, u, frame, d, 1)
	if isNewDomain {
		x.add(FeatHTTPSuccessNew, u, frame, d, 1)
	}
}

func (x *Extractor) consumeLogon(r logstore.Record, u, frame int, d cert.Day, st *dayState) {
	x.add(FeatLogonTotal, u, frame, d, 1)
	if r.Status == "failure" {
		x.add(FeatLogonFail, u, frame, d, 1)
	} else {
		x.add(FeatLogonSuccess, u, frame, d, 1)
	}
	if r.Action == "RemoteLogon" {
		x.add(FeatLogonRemote, u, frame, d, 1)
	}
	if markIn(st.hosts, u, r.Host) {
		x.add(FeatLogonHosts, u, frame, d, 1)
	}
}

func (x *Extractor) add(feature string, u, frame int, d cert.Day, v float64) {
	if f, ok := x.idx[feature]; ok && f >= 0 {
		x.table.Add(u, f, frame, d, v)
	}
}
