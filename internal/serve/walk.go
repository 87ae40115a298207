package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"acobe/internal/audit"
)

// walkOpts is what one caller asks of a stream walk.
type walkOpts struct {
	// audited is the mode the caller reads the stream in; a segment whose
	// header says otherwise fails the walk (auditMismatch). Every
	// diagnostic of an audited walk wraps ErrAuditChainBroken.
	audited bool
	// strict accounts for every byte (the offline verifier). A tolerant
	// walk accepts what a crash leaves behind on the final segment — a torn
	// tail, a header that never finished — and reports it in the end state.
	strict bool
	// from, when non-nil, is the loaded snapshot's position. It must be a
	// frame boundary of an existing segment; a plain stream is not read
	// behind it.
	from *walPos
	// checks pin externally attested chain heads to frame boundaries of an
	// audited stream; one that matches no boundary fails the walk.
	checks []headCheck
}

// headCheck says an artifact (a snapshot) attests that the chain stood at
// head when the log was at pos. what names the artifact for diagnostics.
type headCheck struct {
	pos  walPos
	head audit.Head
	what string
}

// walkedFrame is one verified frame handed to a walk's visitor. pre, root
// and leaves are set on audited streams only: the chain head immediately
// before the frame and, for event records, the batch's recomputed Merkle
// root and leaf hashes (a copy the visitor may keep).
type walkedFrame struct {
	rec    walRecord
	pos    walPos
	pre    audit.Head
	root   audit.Head
	leaves []audit.Head
}

// streamEnd is where a walk ended: the final segment file and how much of
// it is history. size-goodLen bytes are a torn tail, and goodLen 0 means
// the file's header never finished (a crash during rotation); only a
// tolerant walk returns either, and acting on them is the caller's job —
// the walker never writes.
type streamEnd struct {
	segments int    // segment files in the stream
	seq      uint64 // the final one's sequence number
	size     int64  // its size on disk
	goodLen  int64  // its header plus whole valid frames
	// Audited streams: the chain head after the last valid frame and the
	// frames folded in the final segment (what its seal will claim).
	head   audit.Head
	frames uint32
}

// walkStream is the one reader of WAL segment files. It walks the stream
// walDir/prefix* in sequence order and owns everything that is true of a
// segment stream: consecutive sequence numbers and an anchor for a pruned
// prefix (no history gaps), header validity and audit mode, the snapshot
// position on a frame boundary, framing and record decoding, corruption
// tolerated only where a crash can leave it, and — when the stream is
// audited — the hash chain: every fold, recomputed batch roots, seal,
// receipt and header-link consistency, and the attested heads in
// o.checks. Each verified frame goes to visit in log order, after
// everything before it verified.
func walkStream(walDir, prefix string, o walkOpts, visit func(*walkedFrame) error) (streamEnd, error) {
	var end streamEnd
	broken := func(format string, a ...any) error {
		if o.audited {
			return fmt.Errorf("%w: %s", ErrAuditChainBroken, fmt.Sprintf(format, a...))
		}
		return fmt.Errorf("serve: %s", fmt.Sprintf(format, a...))
	}
	segs, err := listSegments(walDir, prefix)
	if err != nil {
		return end, err
	}
	end.segments = len(segs)
	if o.from != nil && !slices.ContainsFunc(segs, func(f dirFile) bool { return uint64(f.num) == o.from.seg }) {
		// Pruning never removes a retained snapshot's segment, so a missing
		// one means manual deletion or over-pruning, and replaying around
		// it would silently rebuild wrong state.
		return end, broken("snapshot WAL position (segment %s%d) is missing from the log — history gap", prefix, o.from.seg)
	}
	if len(segs) > 0 && segs[0].num != 1 && o.from == nil && len(o.checks) == 0 {
		return end, broken("%s: the log starts at segment %d with no snapshot to anchor it — history gap", filepath.Base(segs[0].path), segs[0].num)
	}

	var (
		chain   = audit.NewChain(audit.Head{}) // stays zero on a plain stream
		tree    = audit.NewTree()
		prevSeq uint64
		done    = make([]bool, len(o.checks))
	)
	// attest runs the checks pinned to the boundary pos, where the walked
	// chain stands at head.
	attest := func(name string, pos walPos, head audit.Head) error {
		for ci, c := range o.checks {
			if done[ci] || c.pos != pos {
				continue
			}
			if c.head != head {
				return broken("%s attests chain head at %s offset %d, but the walked chain differs there", c.what, name, pos.off)
			}
			done[ci] = true
		}
		return nil
	}
	for i, sf := range segs {
		seq, name, last := uint64(sf.num), filepath.Base(sf.path), i == len(segs)-1
		if !o.audited && o.from != nil && seq < o.from.seg {
			continue // behind the snapshot; only an older snapshot needs it
		}
		// A missing middle segment must not be skipped silently, with later
		// segments replaying on top of a hole.
		if prevSeq != 0 && seq != prevSeq+1 {
			return end, broken("%s: segment follows %d — history gap", name, prevSeq)
		}
		data, err := os.ReadFile(sf.path)
		if err != nil {
			return end, err
		}
		gotSeq, audited, link, hdrLen, ok := parseSegHeader(data)
		if !ok {
			if last && !o.strict && (o.from == nil || seq != o.from.seg) {
				// Crash during rotation: the new segment's header never
				// finished, so nothing in it was acknowledged (a snapshot
				// positioned inside it says otherwise).
				end.seq, end.size, end.goodLen, end.frames = seq, int64(len(data)), 0, 0
				break
			}
			return end, broken("%s: segment header invalid", name)
		}
		if gotSeq != seq {
			return end, broken("%s: header sequence %d, want %d", name, gotSeq, seq)
		}
		if audited != o.audited {
			// Reading an audited stream without its chain (or a plain one as
			// if chained) would silently change the durability story.
			return end, broken("%s: %v", name, auditMismatch(audited))
		}
		if audited {
			if prevSeq == 0 && seq != 1 {
				// Pruned prefix: the header's claimed link is the anchor; the
				// checks tie it to a signed snapshot's attested head.
				chain.Reset(link)
			} else if link != chain.Head() {
				return end, broken("%s: header chain link does not match the previous segment's sealed head", name)
			}
		}
		prevSeq = seq
		_, frames, goodLen, _ := parseSegment(data)
		skipTo := int64(0)
		if o.from != nil && seq == o.from.seg {
			if !frameBoundary(frames, goodLen, o.from.off, hdrLen) {
				return end, broken("snapshot WAL position %d not on a frame boundary of %s", o.from.off, name)
			}
			if !audited {
				skipTo = o.from.off
			}
		}
		nframes, sealed := uint32(0), false
		for _, fr := range frames {
			if int64(fr.off) < skipTo {
				continue
			}
			f := walkedFrame{pos: walPos{seg: seq, off: int64(fr.off)}}
			if f.rec, err = decodeRecord(fr.payload); err != nil {
				return end, broken("%s offset %d: %v", name, fr.off, err)
			}
			if audited {
				f.pre = chain.Head()
				if err := attest(name, f.pos, f.pre); err != nil {
					return end, err
				}
				frame := data[fr.off : fr.off+8+len(fr.payload)]
				switch f.rec.typ {
				case recEventsPart:
					if f.root, f.leaves, err = batchRoot(tree, f.rec.events); err != nil {
						return end, broken("%s offset %d: %v", name, fr.off, err)
					}
					chain.FoldWithRoot(frame, f.root)
				case recSeal:
					if sl := f.rec.seal; sl.Seq != seq || sl.Frames != nframes || sl.Head != f.pre {
						return end, broken("%s offset %d: seal does not match the chain walk (head/seq/frame-count diverge)", name, fr.off)
					}
					chain.Fold(frame)
				case recReceipt:
					if f.rec.receipt.Head != f.pre {
						return end, broken("%s offset %d: receipt anchored to a different chain head", name, fr.off)
					}
					chain.Fold(frame)
				default:
					chain.Fold(frame)
				}
				nframes++
				sealed = f.rec.typ == recSeal
			}
			if err := visit(&f); err != nil {
				return end, err
			}
		}
		if torn := len(data) - goodLen; torn > 0 && (o.strict || !last) {
			// Only the final segment may carry a crash's torn tail, and the
			// offline verifier accounts for every byte even there.
			return end, broken("%s: %d unverifiable trailing bytes after offset %d (torn or tampered frame)", name, torn, goodLen)
		}
		if audited {
			if err := attest(name, walPos{seg: seq, off: int64(goodLen)}, chain.Head()); err != nil {
				return end, err
			}
			if !last && !sealed {
				return end, broken("%s: segment rotated without a seal", name)
			}
		}
		end.seq, end.size, end.goodLen, end.frames = seq, int64(len(data)), int64(goodLen), nframes
	}
	end.head = chain.Head()
	for ci, c := range o.checks {
		if !done[ci] {
			return end, broken("%s attests a chain head at segment %d offset %d, which is not a frame boundary of the walked log", c.what, c.pos.seg, c.pos.off)
		}
	}
	return end, nil
}

// frameBoundary reports whether off is the header's end, a frame start,
// or the end of the valid prefix.
func frameBoundary(frames []walFrame, goodLen int, off int64, hdrLen int) bool {
	if off == int64(hdrLen) || off == int64(goodLen) {
		return true
	}
	return slices.ContainsFunc(frames, func(fr walFrame) bool { return int64(fr.off) == off })
}

// auditMismatch is the one error for an artifact — WAL segment, snapshot
// or manifest — written under the other audit setting than the one it is
// being read with. written is what the artifact's own header says; the
// caller names the file.
func auditMismatch(written bool) error {
	onOff := map[bool]string{true: "on", false: "off"}
	return fmt.Errorf("written with audit %s but opened with audit %s — open the directory with the audit setting it was written under",
		onOff[written], onOff[!written])
}
