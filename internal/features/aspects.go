package features

import "slices"

// Aspect is a named set of related behavioral features; ACOBE trains one
// autoencoder per aspect (Section IV-B of the paper).
type Aspect struct {
	Name     string
	Features []string
}

// Fine-grained ACOBE feature names for the CERT evaluation (Section V-A3).
const (
	// Device aspect (f1, f2).
	FeatDeviceConnection = "device:connection"
	FeatDeviceNewHost    = "device:new-host-connection"

	// File aspect (f1..f7).
	FeatFileOpenLocal   = "file:open-from-local"
	FeatFileOpenRemote  = "file:open-from-remote"
	FeatFileWriteLocal  = "file:write-to-local"
	FeatFileWriteRemote = "file:write-to-remote"
	FeatFileCopyL2R     = "file:copy-from-local-to-remote"
	FeatFileCopyR2L     = "file:copy-from-remote-to-local"
	FeatFileNewOp       = "file:new-op"

	// HTTP aspect (f1..f7); visit and download are excluded by the paper.
	FeatHTTPUploadDoc = "http:upload-doc"
	FeatHTTPUploadExe = "http:upload-exe"
	FeatHTTPUploadJpg = "http:upload-jpg"
	FeatHTTPUploadPdf = "http:upload-pdf"
	FeatHTTPUploadTxt = "http:upload-txt"
	FeatHTTPUploadZip = "http:upload-zip"
	FeatHTTPNewOp     = "http:new-op"
)

// Coarse baseline feature names (Liu et al.: raw activity counts).
const (
	FeatCoarseDeviceConnect    = "coarse:device-connect"
	FeatCoarseDeviceDisconnect = "coarse:device-disconnect"
	FeatCoarseFileOpen         = "coarse:file-open"
	FeatCoarseFileWrite        = "coarse:file-write"
	FeatCoarseFileCopy         = "coarse:file-copy"
	FeatCoarseHTTPVisit        = "coarse:http-visit"
	FeatCoarseHTTPDownload     = "coarse:http-download"
	FeatCoarseHTTPUpload       = "coarse:http-upload"
	FeatCoarseLogon            = "coarse:logon"
	FeatCoarseLogoff           = "coarse:logoff"
	FeatCoarseEmailSend        = "coarse:email-send"
)

// DeviceAspect returns the paper's device-access aspect.
func DeviceAspect() Aspect {
	return Aspect{Name: "device", Features: []string{
		FeatDeviceConnection, FeatDeviceNewHost,
	}}
}

// FileAspect returns the paper's file-access aspect.
func FileAspect() Aspect {
	return Aspect{Name: "file", Features: []string{
		FeatFileOpenLocal, FeatFileOpenRemote, FeatFileWriteLocal,
		FeatFileWriteRemote, FeatFileCopyL2R, FeatFileCopyR2L, FeatFileNewOp,
	}}
}

// HTTPAspect returns the paper's HTTP-access aspect.
func HTTPAspect() Aspect {
	return Aspect{Name: "http", Features: []string{
		FeatHTTPUploadDoc, FeatHTTPUploadExe, FeatHTTPUploadJpg,
		FeatHTTPUploadPdf, FeatHTTPUploadTxt, FeatHTTPUploadZip, FeatHTTPNewOp,
	}}
}

// ACOBEAspects returns the three aspects ACOBE's ensemble is built on in
// the CERT evaluation.
func ACOBEAspects() []Aspect {
	return []Aspect{DeviceAspect(), FileAspect(), HTTPAspect()}
}

// AllInOneAspect merges every ACOBE feature into a single aspect, used by
// the paper's "All-in-1" ablation (one autoencoder for everything).
func AllInOneAspect() Aspect {
	merged := Aspect{Name: "all-in-1"}
	for _, a := range ACOBEAspects() {
		merged.Features = append(merged.Features, a.Features...)
	}
	return merged
}

// BaselineAspects returns the Liu et al. baseline's four coarse aspects
// (device, file, http, logon).
func BaselineAspects() []Aspect {
	return []Aspect{
		{Name: "device", Features: []string{FeatCoarseDeviceConnect, FeatCoarseDeviceDisconnect}},
		{Name: "file", Features: []string{FeatCoarseFileOpen, FeatCoarseFileWrite, FeatCoarseFileCopy}},
		{Name: "http", Features: []string{FeatCoarseHTTPVisit, FeatCoarseHTTPDownload, FeatCoarseHTTPUpload}},
		{Name: "logon", Features: []string{FeatCoarseLogon, FeatCoarseLogoff}},
	}
}

// AllFeatureNames returns the union of the given aspects' features, in
// order, without duplicates.
func AllFeatureNames(aspects []Aspect) []string {
	var out []string
	for _, a := range aspects {
		for _, f := range a.Features {
			if !slices.Contains(out, f) {
				out = append(out, f)
			}
		}
	}
	return out
}
