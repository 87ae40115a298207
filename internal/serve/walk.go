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
	// strict accounts for every byte (the offline verifier). A tolerant
	// walk accepts what a crash leaves behind on the final segment — a torn
	// tail, a header that never finished — and reports it in the end state.
	strict bool
	// from, when non-nil, is the loaded snapshot's position. It must be a
	// frame boundary of an existing segment.
	from *walPos
	// checks pin externally attested chain heads to frame boundaries of
	// the stream; one that matches no boundary fails the walk.
	checks []headCheck
}

// headCheck says an artifact (a snapshot) attests that the chain stood at
// head when the log was at pos. what names the artifact for diagnostics.
type headCheck struct {
	pos  walPos
	head audit.Head
	what string
}

// walkedFrame is one verified frame handed to a walk's visitor: pre is the
// chain head immediately before the frame and, for event records, root and
// leaves are the batch's recomputed Merkle root and leaf hashes (a copy the
// visitor may keep).
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
	// The chain head after the last valid frame and the frames folded in
	// the final segment (what its seal will claim).
	head   audit.Head
	frames uint32
}

// walkStream is the one reader of WAL segment files. It walks the stream
// walDir/prefix* in sequence order and owns everything that is true of a
// segment stream: consecutive sequence numbers and an anchor for a pruned
// prefix (no history gaps), header validity and version, the snapshot
// position on a frame boundary, framing and record decoding, corruption
// tolerated only where a crash can leave it, and the hash chain: every
// fold, recomputed batch roots, seal, receipt and header-link consistency,
// and the attested heads in o.checks. Each verified frame goes to visit in
// log order, after everything before it verified.
func walkStream(walDir, prefix string, o walkOpts, visit func(*walkedFrame) error) (streamEnd, error) {
	var end streamEnd
	broken := func(format string, a ...any) error {
		return fmt.Errorf("%w: %s", ErrAuditChainBroken, fmt.Sprintf(format, a...))
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
		chain   = audit.NewChain(audit.Head{})
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
		// A missing middle segment must not be skipped silently, with later
		// segments replaying on top of a hole.
		if prevSeq != 0 && seq != prevSeq+1 {
			return end, broken("%s: segment follows %d — history gap", name, prevSeq)
		}
		data, err := os.ReadFile(sf.path)
		if err != nil {
			return end, err
		}
		gotSeq, link, err := parseSegHeader(data)
		if err == errTornHeader && last && !o.strict && (o.from == nil || seq != o.from.seg) {
			// Crash during rotation: the new segment's header never
			// finished, so nothing in it was acknowledged (a snapshot
			// positioned inside it says otherwise).
			end.seq, end.size, end.goodLen, end.frames = seq, int64(len(data)), 0, 0
			break
		}
		if err != nil {
			// Anywhere else a short header is damage, and a header of
			// another version is never a crash's residue.
			return end, broken("%s: %v", name, err)
		}
		if gotSeq != seq {
			return end, broken("%s: header sequence %d, want %d", name, gotSeq, seq)
		}
		if prevSeq == 0 && seq != 1 {
			// Pruned prefix: the header's claimed link is the anchor; the
			// checks tie it to a signed snapshot's attested head.
			chain.Reset(link)
		} else if link != chain.Head() {
			return end, broken("%s: header chain link does not match the previous segment's sealed head", name)
		}
		prevSeq = seq
		_, frames, goodLen, _ := parseSegment(data)
		if o.from != nil && seq == o.from.seg && !frameBoundary(frames, goodLen, o.from.off) {
			return end, broken("snapshot WAL position %d not on a frame boundary of %s", o.from.off, name)
		}
		nframes, sealed := uint32(0), false
		for _, fr := range frames {
			f := walkedFrame{pos: walPos{seg: seq, off: int64(fr.off)}}
			if f.rec, err = decodeRecord(fr.payload); err != nil {
				return end, broken("%s offset %d: %v", name, fr.off, err)
			}
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
			if err := visit(&f); err != nil {
				return end, err
			}
		}
		if torn := len(data) - goodLen; torn > 0 && (o.strict || !last) {
			// Only the final segment may carry a crash's torn tail, and the
			// offline verifier accounts for every byte even there.
			return end, broken("%s: %d unverifiable trailing bytes after offset %d (torn or tampered frame)", name, torn, goodLen)
		}
		if err := attest(name, walPos{seg: seq, off: int64(goodLen)}, chain.Head()); err != nil {
			return end, err
		}
		if !last && !sealed {
			return end, broken("%s: segment rotated without a seal", name)
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
func frameBoundary(frames []walFrame, goodLen int, off int64) bool {
	if off == walHeaderSize || off == int64(goodLen) {
		return true
	}
	return slices.ContainsFunc(frames, func(fr walFrame) bool { return int64(fr.off) == off })
}
