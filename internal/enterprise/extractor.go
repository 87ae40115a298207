package enterprise

import (
	"fmt"

	"acobe/internal/cert"
	"acobe/internal/features"
	"acobe/internal/logstore"
)

// Candidate kinds: the five first-seen categories in the order SaveState
// writes their histories, then logon hosts, which are counted per day and
// keep no history.
const (
	kindCommand = iota
	kindConfig
	kindDomain
	kindFile
	kindResource
	kindHost
	numKinds
	numSeen = kindHost
)

// predictable classifies a record of one of the four predictable aspects:
// its kind and whether it is the aspect's "extra" action (share access,
// PowerShell, account modification, service install).
func predictable(action string) (kind int, extra, ok bool) {
	switch action {
	case "FileWrite", "FileRead", "FileDelete", "FileCreate":
		return kindFile, false, true
	case "ShareAccess":
		return kindFile, true, true
	case "ProcessCreate":
		return kindCommand, false, true
	case "PowerShell":
		return kindCommand, true, true
	case "RegistrySet", "RegistryDelete":
		return kindConfig, false, true
	case "AccountMod":
		return kindConfig, true, true
	case "ScheduledTask", "DriverLoad":
		return kindResource, false, true
	case "ServiceInstall":
		return kindResource, true, true
	default:
		return 0, false, false
	}
}

// Extractor turns records into the 27-feature measurement table. Records
// arrive one at a time through Apply, in any order and for any day not yet
// closed, and land in that day's accumulator (features.Lifecycle); CloseDay
// writes a day into the table. Days close in order: the "new" features
// track first-seen objects, exactly like the CERT extractor. A day's
// "unique" and "new" counts go to the frame of the earliest record naming
// the object, so every named object is a candidate carrying that record's
// stamp.
type Extractor struct {
	features.Lifecycle

	// seen is the first-seen history of the closed days: the candidate ID
	// of every object they judged new, for the kinds below kindHost.
	seen features.KeySet
	// f holds feature index × frames per feature, resolved once; key is
	// the candidate-key scratch.
	f   cellOffsets
	key []byte
}

// cellOffsets locates each feature inside a user's block of an
// accumulator. The per-kind arrays are indexed by predictable kind.
type cellOffsets struct {
	count, unique, fresh, extra [numSeen]int

	httpSuccess, httpSuccessNew, httpFail, httpFailNew, httpUploads, httpUniqueDom int
	logonTotal, logonSuccess, logonFail, logonRemote, logonHosts                   int
}

// NewExtractor builds an extractor over employee IDs for the day span.
func NewExtractor(userIDs []string, start, end cert.Day) (*Extractor, error) {
	table, err := features.NewTable(userIDs, FeatureNames(), cert.NumTimeframes, start, end)
	if err != nil {
		return nil, fmt.Errorf("enterprise: new extractor: %w", err)
	}
	x := &Extractor{Lifecycle: features.NewLifecycle(table, numKinds, extractorStateMagic), seen: features.NewKeySet(len(userIDs), numSeen)}
	off := func(feature string) int { return table.FeatureIndex(feature) * table.Frames() }
	x.f = cellOffsets{
		httpSuccess: off(FeatHTTPSuccess), httpSuccessNew: off(FeatHTTPSuccessNew),
		httpFail: off(FeatHTTPFail), httpFailNew: off(FeatHTTPFailNew),
		httpUploads: off(FeatHTTPUploads), httpUniqueDom: off(FeatHTTPUniqueDom),
		logonTotal: off(FeatLogonTotal), logonSuccess: off(FeatLogonSuccess), logonFail: off(FeatLogonFail),
		logonRemote: off(FeatLogonRemote), logonHosts: off(FeatLogonHosts),
	}
	// aspect feature tuples per category: count, unique, new, extra.
	for kind, f := range map[int][4]string{
		kindFile:     {FeatFileEvents, FeatFileUnique, FeatFileNew, FeatFileShares},
		kindCommand:  {FeatCmdProcesses, FeatCmdUnique, FeatCmdNew, FeatCmdPowerShell},
		kindConfig:   {FeatCfgRegistry, FeatCfgUnique, FeatCfgNew, FeatCfgAccountMods},
		kindResource: {FeatResEvents, FeatResUnique, FeatResNew, FeatResServices},
	} {
		x.f.count[kind], x.f.unique[kind], x.f.fresh[kind], x.f.extra[kind] = off(f[0]), off(f[1]), off(f[2]), off(f[3])
	}
	return x, nil
}

// Consume processes one whole day: it applies every record to day d —
// whatever its own timestamp says — and closes d.
func (x *Extractor) Consume(d cert.Day, recs []logstore.Record) error {
	for i := range recs {
		if _, err := x.apply(d, &recs[i]); err != nil {
			return err
		}
	}
	_, err := x.CloseDay(d)
	return err
}

// Apply folds one record into the accumulator of its day, which must not
// be closed yet. It reports false, and does nothing, for a user outside
// the table.
func (x *Extractor) Apply(r *logstore.Record) (known bool, err error) {
	return x.apply(r.Day(), r)
}

func (x *Extractor) apply(d cert.Day, r *logstore.Record) (bool, error) {
	a, u, frame, cells, err := x.Open(d, r.User, r.Time)
	if a == nil {
		return false, err
	}
	f := &x.f
	if kind, extra, ok := predictable(r.Action); ok {
		if extra {
			cells[f.extra[kind]]++
		}
		// "processes" counts process creations only; PowerShell has its
		// own counter. Everything else counts every event in the category.
		if kind != kindCommand || !extra {
			cells[f.count[kind]]++
		}
		x.candidate(a, u, kind, frame, r, r.Object)
		return true, nil
	}
	switch r.Action {
	case "HTTPRequest", "HTTPUpload", "DNSQuery":
		if r.Action == "HTTPUpload" {
			cells[f.httpUploads]++
		}
		outcome := 0
		if r.Status == "failure" {
			outcome = 1
			cells[f.httpFail]++
		} else {
			cells[f.httpSuccess]++
		}
		x.candidate(a, u, kindDomain, frame, r, r.Object).N[frame][outcome]++
	case "Logon", "RemoteLogon":
		cells[f.logonTotal]++
		if r.Status == "failure" {
			cells[f.logonFail]++
		} else {
			cells[f.logonSuccess]++
		}
		if r.Action == "RemoteLogon" {
			cells[f.logonRemote]++
		}
		x.candidate(a, u, kindHost, frame, r, r.Host)
	}
	return true, nil
}

// candidate notes that r named key, keeping the earliest stamp.
func (x *Extractor) candidate(a *features.DayAcc, u, kind, frame int, r *logstore.Record, key string) *features.Candidate {
	x.key = append(features.CandID(x.key, u, kind), key...)
	n := len(a.Cands)
	c := a.Candidate(x.key)
	if at := features.StampOf(r.Time, frame); len(a.Cands) > n || at.Before(c.First) {
		c.First = at
	}
	return c
}

// CloseDay writes day d's accumulator into the table: each named object
// counts once as unique, and once as new when no earlier day holds it, in
// the frame of its earliest record; every request to a domain no earlier
// day holds counts as a new-domain request in its own frame. See
// features.Lifecycle.Close for the order days close in.
func (x *Extractor) CloseDay(d cert.Day) (events int, err error) { return x.Close(d, x.resolve) }

func (x *Extractor) resolve(a *features.DayAcc, stride int) {
	f := &x.f
	for i := range a.Cands {
		c := &a.Cands[i]
		u, kind := c.Head()
		cells := a.Cells[u*stride:]
		first := int(c.First.Frame)
		if kind == kindHost {
			cells[f.logonHosts+first]++
			continue
		}
		x.key = append(x.key[:0], c.ID...)
		isNew := x.seen.Add(x.key)
		if kind != kindDomain {
			cells[f.unique[kind]+first]++
			if isNew {
				cells[f.fresh[kind]+first]++
			}
			continue
		}
		cells[f.httpUniqueDom+first]++
		if isNew {
			for frame, n := range c.N {
				cells[f.httpSuccessNew+frame] += float64(n[0])
				cells[f.httpFailNew+frame] += float64(n[1])
			}
		}
	}
}
