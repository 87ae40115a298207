package features

import (
	"fmt"
	"slices"

	"acobe/internal/cert"
)

// Extractor folds events into a measurement Table carrying the features it
// was built over: the fine-grained ACOBE features and the coarse baseline
// features (NewExtractor), or a subset of them (NewExtractorFor). Events
// arrive one at a time through Apply, in any order and for any day not yet
// closed, and land in that day's accumulator (see Lifecycle); CloseDay
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
	Lifecycle

	// seen is the first-seen history of the closed days: the candidate
	// ID of every pair they judged new.
	seen KeySet
	// f holds every feature's cell offset inside a user's block of an
	// accumulator, resolved once; key is the candidate-key scratch.
	f   cellOffsets
	key []byte
}

// Candidate kinds, in the order SaveState writes their histories.
const (
	kindHost   = iota // device: PCs the user connected drives to
	kindFileOp        // file: activity|direction|fileID
	kindHTTPOp        // http: filetype|domain (uploads)
	numKinds
)

// cellOffsets is feature index × frames for each feature the extractor has
// a rule for, or -1 for one its table does not hold.
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

// NewExtractor builds an extractor over users for the inclusive day span
// that fills every tracked feature, using the paper's two time-frames (work
// and off hours).
func NewExtractor(users []string, start, end cert.Day) (*Extractor, error) {
	return NewExtractorFor(users, trackedFeatures, start, end)
}

// NewExtractorFor is NewExtractor over the given features only, in that
// order: an event still counts in its day, but a feature outside the list
// gets no cell, and a new-op feature outside it keeps no first-seen
// history. A name the extractor has no rule for is refused.
func NewExtractorFor(users, feats []string, start, end cert.Day) (*Extractor, error) {
	for _, f := range feats {
		if !slices.Contains(trackedFeatures, f) {
			return nil, fmt.Errorf("features: new extractor: no rule fills feature %q", f)
		}
	}
	table, err := NewTable(users, feats, cert.NumTimeframes, start, end)
	if err != nil {
		return nil, fmt.Errorf("features: new extractor: %w", err)
	}
	x := &Extractor{Lifecycle: NewLifecycle(table, numKinds, extractorStateMagic), seen: NewKeySet(len(users), numKinds)}
	// An untracked feature's offset is -1: bump skips it.
	off := func(feature string) int {
		if i := table.FeatureIndex(feature); i >= 0 {
			return i * table.frames
		}
		return -1
	}
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
	a, u, frame, cells, err := x.Open(d, e.User, e.Time)
	if a == nil {
		return false, err
	}
	f := &x.f
	switch e.Type {
	case cert.EventLogon:
		switch e.Activity {
		case cert.ActLogon:
			bump(cells, f.logon)
		case cert.ActLogoff:
			bump(cells, f.logoff)
		}
	case cert.EventDevice:
		switch e.Activity {
		case cert.ActConnect:
			bump(cells, f.devConnection)
			bump(cells, f.devConnect)
			x.candidate(a, u, kindHost, frame, e.PC)
		case cert.ActDisconnect:
			bump(cells, f.devDisconnect)
		}
	case cert.EventFile:
		switch e.Activity {
		case cert.ActFileOpen:
			bump(cells, f.fileOpen)
			switch e.Direction {
			case cert.DirLocal:
				bump(cells, f.fileOpenLocal)
			case cert.DirRemote:
				bump(cells, f.fileOpenRemote)
			}
		case cert.ActFileWrite:
			bump(cells, f.fileWrite)
			switch e.Direction {
			case cert.DirLocal:
				bump(cells, f.fileWriteLocal)
			case cert.DirRemote:
				bump(cells, f.fileWriteRemote)
			}
		case cert.ActFileCopy:
			bump(cells, f.fileCopy)
			switch e.Direction {
			case cert.DirLocalToRemote:
				bump(cells, f.fileCopyL2R)
			case cert.DirRemoteToLocal:
				bump(cells, f.fileCopyR2L)
			}
		}
		x.candidate(a, u, kindFileOp, frame, e.Activity, e.Direction, e.FileID)
	case cert.EventHTTP:
		switch e.Activity {
		case cert.ActVisit:
			bump(cells, f.httpVisit)
		case cert.ActDownload:
			bump(cells, f.httpDownload)
		case cert.ActUpload:
			bump(cells, f.httpUpload)
			bump(cells, f.upload(e.FileType))
			x.candidate(a, u, kindHTTPOp, frame, e.FileType, e.Domain)
		}
	case cert.EventEmail:
		if e.Activity == cert.ActSend {
			bump(cells, f.emailSend)
		}
	}
	return true, nil
}

// bump counts one event in the cell at off, unless off is -1 (an
// untracked feature).
func bump(cells []float64, off int) {
	if off >= 0 {
		cells[off]++
	}
}

// candidate counts one event of the pair made of parts (joined by '|')
// unless the closed days' history already holds the pair or the kind's
// feature is untracked.
func (x *Extractor) candidate(a *DayAcc, u, kind, frame int, parts ...string) {
	if x.f.newOp[kind] < 0 {
		return
	}
	k := CandID(x.key, u, kind)
	for i, p := range parts {
		if i > 0 {
			k = append(k, '|')
		}
		k = append(k, p...)
	}
	x.key = k
	if x.seen.Has(k) {
		return
	}
	a.Candidate(k).N[frame][0]++
}

// CloseDay writes day d's accumulator into the table: every candidate pair
// no earlier day holds is counted as new in the frames its events fell in
// and joins the history. See Lifecycle.Close for the order days close in.
func (x *Extractor) CloseDay(d cert.Day) (events int, err error) { return x.Close(d, x.resolve) }

func (x *Extractor) resolve(a *DayAcc, stride int) {
	for i := range a.Cands {
		c := &a.Cands[i]
		u, kind := c.Head()
		off := x.f.newOp[kind]
		if off < 0 {
			continue // an untracked kind keeps no history
		}
		x.key = append(x.key[:0], c.ID...)
		if !x.seen.Add(x.key) {
			continue // a day closed since the event arrived brought the pair
		}
		for frame, n := range c.N {
			a.Cells[u*stride+off+frame] += float64(n[0])
		}
	}
}

// upload maps an uploaded file type to its fine-grained feature's offset,
// or -1 for another type or an untracked feature.
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
