package features

import (
	"fmt"
	"strings"

	"acobe/internal/cert"
)

// Extractor consumes daily event batches and fills a measurement Table
// with both the fine-grained ACOBE features and the coarse baseline
// features. Days must be consumed in chronological order because the
// "new-op" features depend on what the user had done before each day.
//
// The paper defines new-op features as "the number of operations in terms
// of (feature, file-ID) [resp. (feature, domain)] pairs that the user never
// had conducted before day d": a pair first seen on day d keeps counting as
// new for all of day d, and stops counting from day d+1 on.
type Extractor struct {
	table   *Table
	lastDay cert.Day
	started bool

	// First-seen trackers, keyed by user index.
	seenHosts   []map[string]bool // device: PCs the user connected drives to
	seenFileOps []map[string]bool // file: activity|direction|fileID
	seenHTTPOps []map[string]bool // http: filetype|domain (uploads)

	// Feature indices resolved once at construction; -1 when the table
	// does not carry that feature (callers may build reduced tables).
	idx map[string]int
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
	x := &Extractor{
		table:       table,
		seenHosts:   make([]map[string]bool, len(users)),
		seenFileOps: make([]map[string]bool, len(users)),
		seenHTTPOps: make([]map[string]bool, len(users)),
		idx:         make(map[string]int, len(trackedFeatures)),
	}
	for i := range users {
		x.seenHosts[i] = make(map[string]bool)
		x.seenFileOps[i] = make(map[string]bool)
		x.seenHTTPOps[i] = make(map[string]bool)
	}
	for _, f := range trackedFeatures {
		x.idx[f] = table.FeatureIndex(f)
	}
	return x, nil
}

// Table returns the underlying measurement table.
func (x *Extractor) Table() *Table { return x.table }

// Consume processes one day's events. Days must arrive strictly
// increasing; the day's events may be in any order.
func (x *Extractor) Consume(d cert.Day, events []cert.Event) error {
	if x.started && d <= x.lastDay {
		return fmt.Errorf("features: days must be consumed in order (got %v after %v)", d, x.lastDay)
	}
	x.started = true
	x.lastDay = d

	// Pairs first seen today: counted as new all day, merged afterwards.
	newHosts := make(map[int]map[string]bool)
	newFileOps := make(map[int]map[string]bool)
	newHTTPOps := make(map[int]map[string]bool)

	for _, e := range events {
		u := x.table.UserIndex(e.User)
		if u < 0 {
			continue // user outside this extraction (e.g. filtered dept)
		}
		frame := int(e.Timeframe())
		switch e.Type {
		case cert.EventLogon:
			switch e.Activity {
			case cert.ActLogon:
				x.add(FeatCoarseLogon, u, frame, d, 1)
			case cert.ActLogoff:
				x.add(FeatCoarseLogoff, u, frame, d, 1)
			}
		case cert.EventDevice:
			switch e.Activity {
			case cert.ActConnect:
				x.add(FeatDeviceConnection, u, frame, d, 1)
				x.add(FeatCoarseDeviceConnect, u, frame, d, 1)
				if !x.seenHosts[u][e.PC] {
					x.add(FeatDeviceNewHost, u, frame, d, 1)
					setIn(newHosts, u, e.PC)
				}
			case cert.ActDisconnect:
				x.add(FeatCoarseDeviceDisconnect, u, frame, d, 1)
			}
		case cert.EventFile:
			x.consumeFile(e, u, frame, d, newFileOps)
		case cert.EventHTTP:
			x.consumeHTTP(e, u, frame, d, newHTTPOps)
		case cert.EventEmail:
			if e.Activity == cert.ActSend {
				x.add(FeatCoarseEmailSend, u, frame, d, 1)
			}
		}
	}

	// End of day: today's new pairs become history. A host key is a field
	// of the event it came from, which may be a slice of something larger
	// (the daemon decodes an event's strings into one allocation); history
	// outlives the day, so it keeps a copy of its own. The other two kinds
	// of key are concatenations, made here.
	for u, set := range newHosts {
		for k := range set {
			x.seenHosts[u][strings.Clone(k)] = true
		}
	}
	for u, set := range newFileOps {
		for k := range set {
			x.seenFileOps[u][k] = true
		}
	}
	for u, set := range newHTTPOps {
		for k := range set {
			x.seenHTTPOps[u][k] = true
		}
	}
	return nil
}

func (x *Extractor) consumeFile(e cert.Event, u, frame int, d cert.Day, newOps map[int]map[string]bool) {
	var feat string
	switch {
	case e.Activity == cert.ActFileOpen && e.Direction == cert.DirLocal:
		feat = FeatFileOpenLocal
	case e.Activity == cert.ActFileOpen && e.Direction == cert.DirRemote:
		feat = FeatFileOpenRemote
	case e.Activity == cert.ActFileWrite && e.Direction == cert.DirLocal:
		feat = FeatFileWriteLocal
	case e.Activity == cert.ActFileWrite && e.Direction == cert.DirRemote:
		feat = FeatFileWriteRemote
	case e.Activity == cert.ActFileCopy && e.Direction == cert.DirLocalToRemote:
		feat = FeatFileCopyL2R
	case e.Activity == cert.ActFileCopy && e.Direction == cert.DirRemoteToLocal:
		feat = FeatFileCopyR2L
	}
	if feat != "" {
		x.add(feat, u, frame, d, 1)
	}
	switch e.Activity {
	case cert.ActFileOpen:
		x.add(FeatCoarseFileOpen, u, frame, d, 1)
	case cert.ActFileWrite:
		x.add(FeatCoarseFileWrite, u, frame, d, 1)
	case cert.ActFileCopy:
		x.add(FeatCoarseFileCopy, u, frame, d, 1)
	}
	key := e.Activity + "|" + e.Direction + "|" + e.FileID
	if !x.seenFileOps[u][key] {
		x.add(FeatFileNewOp, u, frame, d, 1)
		setIn(newOps, u, key)
	}
}

func (x *Extractor) consumeHTTP(e cert.Event, u, frame int, d cert.Day, newOps map[int]map[string]bool) {
	switch e.Activity {
	case cert.ActVisit:
		x.add(FeatCoarseHTTPVisit, u, frame, d, 1)
	case cert.ActDownload:
		x.add(FeatCoarseHTTPDownload, u, frame, d, 1)
	case cert.ActUpload:
		x.add(FeatCoarseHTTPUpload, u, frame, d, 1)
		if feat, ok := uploadFeature(e.FileType); ok {
			x.add(feat, u, frame, d, 1)
		}
		key := e.FileType + "|" + e.Domain
		if !x.seenHTTPOps[u][key] {
			x.add(FeatHTTPNewOp, u, frame, d, 1)
			setIn(newOps, u, key)
		}
	}
}

// uploadFeature maps an uploaded file type to its fine-grained feature.
func uploadFeature(fileType string) (string, bool) {
	switch fileType {
	case "doc":
		return FeatHTTPUploadDoc, true
	case "exe":
		return FeatHTTPUploadExe, true
	case "jpg":
		return FeatHTTPUploadJpg, true
	case "pdf":
		return FeatHTTPUploadPdf, true
	case "txt":
		return FeatHTTPUploadTxt, true
	case "zip":
		return FeatHTTPUploadZip, true
	default:
		return "", false
	}
}

func (x *Extractor) add(feature string, u, frame int, d cert.Day, v float64) {
	if f, ok := x.idx[feature]; ok && f >= 0 {
		x.table.Add(u, f, frame, d, v)
	}
}

func setIn(m map[int]map[string]bool, u int, key string) {
	set, ok := m[u]
	if !ok {
		set = make(map[string]bool)
		m[u] = set
	}
	set[key] = true
}
