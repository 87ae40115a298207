package features

import (
	"fmt"
	"strings"

	"acobe/internal/cert"
)

// Extractor folds events into a measurement Table carrying both the
// fine-grained ACOBE features and the coarse baseline features. Events
// arrive one at a time through Apply, in any order and for any day not yet
// closed, and land in that day's accumulator (see OpenDays); CloseDay
// writes a day into the table. Days close in chronological order because
// the "new-op" features depend on what the user had done before each day.
//
// The paper defines new-op features as "the number of operations in terms
// of (feature, file-ID) [resp. (feature, domain)] pairs that the user never
// had conducted before day d": a pair first seen on day d keeps counting as
// new for all of day d, and stops counting from day d+1 on. So an event
// whose pair the closed days already hold is not new whenever it arrives;
// any other is held as a candidate, counted per frame, and judged when its
// day closes and the history before it is complete.
type Extractor struct {
	table   *Table
	lastDay cert.Day
	started bool

	// seen is the first-seen history of the closed days, per candidate
	// kind and user index.
	seen [numKinds][]map[string]bool
	open *OpenDays
	// f holds every feature's cell offset inside a user's block of an
	// accumulator, resolved once; key is the candidate-key scratch.
	f   cellOffsets
	key []byte
	// lastIdx is the user index the last event resolved to, or -1.
	lastIdx int
}

// Candidate kinds, in the order SaveState writes their histories.
const (
	kindHost   = iota // device: PCs the user connected drives to
	kindFileOp        // file: activity|direction|fileID
	kindHTTPOp        // http: filetype|domain (uploads)
	numKinds
)

// cellOffsets is feature index × frames for each tracked feature.
type cellOffsets struct {
	logon, logoff, emailSend                 int
	devConnection, devConnect, devDisconnect int
	fileOpenLocal, fileOpenRemote            int
	fileWriteLocal, fileWriteRemote          int
	fileCopyL2R, fileCopyR2L                 int
	fileOpen, fileWrite, fileCopy            int
	httpVisit, httpDownload, httpUpload      int
	upDoc, upExe, upJpg, upPdf, upTxt, upZip int
	newOp                                    [numKinds]int
}

// trackedFeatures is every feature the extractor knows how to fill: the
// fine ACOBE features, the coarse baseline features, and the extra coarse
// counters not claimed by any aspect (email).
var trackedFeatures = AllFeatureNames(append(
	append(ACOBEAspects(), BaselineAspects()...),
	Aspect{Name: "email", Features: []string{FeatCoarseEmailSend}},
))

// TrackedFeatures returns the full list of feature names the extractor can
// fill (fine ACOBE features plus coarse baseline features).
func TrackedFeatures() []string {
	return append([]string(nil), trackedFeatures...)
}

// NewExtractor builds an extractor over users for the inclusive day span,
// using the paper's two time-frames (work and off hours).
func NewExtractor(users []string, start, end cert.Day) (*Extractor, error) {
	table, err := NewTable(users, trackedFeatures, cert.NumTimeframes, start, end)
	if err != nil {
		return nil, fmt.Errorf("features: new extractor: %w", err)
	}
	x := &Extractor{table: table, open: NewOpenDays(table, numKinds), lastIdx: -1}
	for k := range x.seen {
		x.seen[k] = make([]map[string]bool, len(users))
		for u := range x.seen[k] {
			x.seen[k][u] = make(map[string]bool)
		}
	}
	off := func(feature string) int { return table.FeatureIndex(feature) * table.frames }
	x.f = cellOffsets{
		logon: off(FeatCoarseLogon), logoff: off(FeatCoarseLogoff), emailSend: off(FeatCoarseEmailSend),
		devConnection: off(FeatDeviceConnection), devConnect: off(FeatCoarseDeviceConnect), devDisconnect: off(FeatCoarseDeviceDisconnect),
		fileOpenLocal: off(FeatFileOpenLocal), fileOpenRemote: off(FeatFileOpenRemote),
		fileWriteLocal: off(FeatFileWriteLocal), fileWriteRemote: off(FeatFileWriteRemote),
		fileCopyL2R: off(FeatFileCopyL2R), fileCopyR2L: off(FeatFileCopyR2L),
		fileOpen: off(FeatCoarseFileOpen), fileWrite: off(FeatCoarseFileWrite), fileCopy: off(FeatCoarseFileCopy),
		httpVisit: off(FeatCoarseHTTPVisit), httpDownload: off(FeatCoarseHTTPDownload), httpUpload: off(FeatCoarseHTTPUpload),
		upDoc: off(FeatHTTPUploadDoc), upExe: off(FeatHTTPUploadExe), upJpg: off(FeatHTTPUploadJpg),
		upPdf: off(FeatHTTPUploadPdf), upTxt: off(FeatHTTPUploadTxt), upZip: off(FeatHTTPUploadZip),
		newOp: [numKinds]int{kindHost: off(FeatDeviceNewHost), kindFileOp: off(FeatFileNewOp), kindHTTPOp: off(FeatHTTPNewOp)},
	}
	return x, nil
}

// Table returns the underlying measurement table.
func (x *Extractor) Table() *Table { return x.table }

// Consume processes one whole day: it applies every event to day d —
// whatever its own timestamp says — and closes d. Days must arrive
// strictly increasing; the day's events may be in any order.
func (x *Extractor) Consume(d cert.Day, events []cert.Event) error {
	for i := range events {
		if _, err := x.apply(d, &events[i]); err != nil {
			return err
		}
	}
	_, err := x.CloseDay(d)
	return err
}

// Apply folds one event into the accumulator of its day, which must not be
// closed yet. It reports false, and does nothing, for a user outside the
// table (e.g. a filtered department).
func (x *Extractor) Apply(e *cert.Event) (known bool, err error) {
	return x.apply(cert.DayOf(e.Time), e)
}

func (x *Extractor) apply(d cert.Day, e *cert.Event) (bool, error) {
	if x.started && d <= x.lastDay {
		return false, fmt.Errorf("features: days must be consumed in order (got %v after %v)", d, x.lastDay)
	}
	// Shippers batch by user: the last one found is tried first.
	u := x.lastIdx
	if u < 0 || e.User != x.table.users[u] {
		if u = x.table.UserIndex(e.User); u < 0 {
			return false, nil
		}
		x.lastIdx = u
	}
	a := x.open.Day(d)
	a.Events++
	frame := int(cert.TimeframeOfHour(e.Time.Hour()))
	// cells is the user's [feature][frame] block, already offset to the
	// event's frame: cells[f.x] is (feature x, frame).
	cells := a.Cells[u*len(x.table.features)*x.table.frames+frame:]
	f := &x.f
	switch e.Type {
	case cert.EventLogon:
		switch e.Activity {
		case cert.ActLogon:
			cells[f.logon]++
		case cert.ActLogoff:
			cells[f.logoff]++
		}
	case cert.EventDevice:
		switch e.Activity {
		case cert.ActConnect:
			cells[f.devConnection]++
			cells[f.devConnect]++
			x.candidate(a, u, kindHost, frame, e.PC)
		case cert.ActDisconnect:
			cells[f.devDisconnect]++
		}
	case cert.EventFile:
		switch e.Activity {
		case cert.ActFileOpen:
			cells[f.fileOpen]++
			switch e.Direction {
			case cert.DirLocal:
				cells[f.fileOpenLocal]++
			case cert.DirRemote:
				cells[f.fileOpenRemote]++
			}
		case cert.ActFileWrite:
			cells[f.fileWrite]++
			switch e.Direction {
			case cert.DirLocal:
				cells[f.fileWriteLocal]++
			case cert.DirRemote:
				cells[f.fileWriteRemote]++
			}
		case cert.ActFileCopy:
			cells[f.fileCopy]++
			switch e.Direction {
			case cert.DirLocalToRemote:
				cells[f.fileCopyL2R]++
			case cert.DirRemoteToLocal:
				cells[f.fileCopyR2L]++
			}
		}
		x.candidate(a, u, kindFileOp, frame, e.Activity, e.Direction, e.FileID)
	case cert.EventHTTP:
		switch e.Activity {
		case cert.ActVisit:
			cells[f.httpVisit]++
		case cert.ActDownload:
			cells[f.httpDownload]++
		case cert.ActUpload:
			cells[f.httpUpload]++
			if up := f.upload(e.FileType); up >= 0 {
				cells[up]++
			}
			x.candidate(a, u, kindHTTPOp, frame, e.FileType, e.Domain)
		}
	case cert.EventEmail:
		if e.Activity == cert.ActSend {
			cells[f.emailSend]++
		}
	}
	return true, nil
}

// candidate counts one event of the pair made of parts (joined by '|')
// unless the closed days' history already holds the pair.
func (x *Extractor) candidate(a *DayAcc, u, kind, frame int, parts ...string) {
	k := CandID(x.key, u, kind)
	for i, p := range parts {
		if i > 0 {
			k = append(k, '|')
		}
		k = append(k, p...)
	}
	x.key = k
	if x.seen[kind][u][string(k[candPrefix:])] {
		return
	}
	a.Candidate(k).N[frame][0]++
}

// CloseDay writes day d's accumulator into the table: every candidate pair
// no earlier day holds is counted as new in the frames its events fell in
// and joins the history. d must follow the last closed day, and no earlier
// day may still be open. A day outside the table's span still updates the
// history (callers may stream a full dataset into a sub-range table). It
// returns how many events the day held.
func (x *Extractor) CloseDay(d cert.Day) (events int, err error) {
	if x.started && d <= x.lastDay {
		return 0, fmt.Errorf("features: days must be consumed in order (got %v after %v)", d, x.lastDay)
	}
	if x.open.AnyBefore(d) {
		return 0, fmt.Errorf("features: closing %v with an earlier day still open", d)
	}
	x.started, x.lastDay = true, d
	a := x.open.Take(d)
	if a == nil {
		return 0, nil
	}
	stride := len(x.table.features) * x.table.frames
	for i := range a.Cands {
		c := &a.Cands[i]
		u, kind, key := c.Split()
		if x.seen[kind][u][key] {
			continue // a day closed since the event arrived brought the pair
		}
		// The history outlives the day: it keeps a copy of the bare key,
		// not the candidate's prefixed string.
		x.seen[kind][u][strings.Clone(key)] = true
		for frame, n := range c.N {
			a.Cells[u*stride+x.f.newOp[kind]+frame] += float64(n[0])
		}
	}
	x.table.AddDay(d, a.Cells)
	events = a.Events
	x.open.Release(a)
	return events, nil
}

// upload maps an uploaded file type to its fine-grained feature's offset,
// or -1.
func (f *cellOffsets) upload(fileType string) int {
	switch fileType {
	case "doc":
		return f.upDoc
	case "exe":
		return f.upExe
	case "jpg":
		return f.upJpg
	case "pdf":
		return f.upPdf
	case "txt":
		return f.upTxt
	case "zip":
		return f.upZip
	default:
		return -1
	}
}
