package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the compact sealed form of a hub labeling. Every entry
// (h, d) of L(v) other than the self entry (v, 0) was set by
// labelVertex to d = w + d_u(h), for an upward edge v→u of weight w and
// hub h's entry d_u(h) in L(u); pruning only drops entries, it never
// changes one. Given the hierarchy, an entry is therefore named by two
// small numbers: which of v's upward edges it came through, and its
// position in L(u). Sealed as two uvarints, that is about two bytes an
// entry against the twelve of an (int32 hub, float64 distance) pair.
//
// The entries are listed label by label in topoOrder's order of the
// upward DAG, which puts every L(u) before the labels that point into
// it, so one pass rebuilds them all. A rebuilt distance is one float64
// addition of two sealed values, w and d_u(h), the same two operands
// labelVertex added. Go may fuse a multiplication into an addition, but
// there is none here to fuse, so both sides round the one IEEE 754 sum
// to nearest-even and the rebuilt labels equal the origin's bit for
// bit on any platform.

// ErrInvalidSources marks hub-label sources that do not rebuild into a
// valid labeling: a malformed hierarchy, a pointer out of range, hubs
// out of order, a non-finite distance, or a stream of the wrong length.
var ErrInvalidSources = errors.New("index: invalid hub-label sources")

func sourcesErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidSources, fmt.Sprintf(format, args...))
}

// sourceChunk is how many vertices of the topological order one worker
// derives at a time.
const sourceChunk = 4096

// HLSources derives the sealed form of f's hub labels from the
// hierarchy they were built from: lens[v] is L(v)'s length, and src
// holds, for every entry of every label in topoOrder's order, the
// uvarint of its upward-edge index within v's upward edges plus one (0
// for the self entry), then the uvarint of its position in the label
// the edge leads to (0 for the self entry). Where several edges give
// an entry's exact distance, the first in CSR order is named, so the
// form is a function of the labels and the hierarchy alone.
//
// f must carry both the labels and their hierarchy, as Export returns
// them for an index built by Build or restored by RebuildLabels. An
// entry no edge reproduces bit for bit is an error. Vertices are
// derived in parallel chunks, each worker holding one dense n-entry
// table of positions in the current label.
func HLSources(f *FlatIndex) (lens []uint32, src []byte, err error) {
	n := len(f.LabOff) - 1
	if f.Kind != "hl" || n < 0 || len(f.UpOff) != n+1 {
		return nil, nil, fmt.Errorf("index: hub-label sources need an hl index carrying its hierarchy")
	}
	order, ok := topoOrder(n, f.UpOff, f.UpTo)
	if !ok {
		return nil, nil, fmt.Errorf("index: CH upward graph is cyclic; not a contraction hierarchy")
	}
	lens = make([]uint32, n)
	for v := range lens {
		lens[v] = uint32(f.LabOff[v+1] - f.LabOff[v])
	}

	parts := make([][]byte, (n+sourceChunk-1)/sourceChunk)
	errs := make([]error, len(parts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(parts)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := &sourceDeriver{f: f, want: make([]float64, n), pos: make([]int32, n)}
			for i := range d.want {
				d.want[i] = -1
			}
			for {
				c := int(next.Add(1) - 1)
				if c >= len(parts) {
					return
				}
				chunk := order[c*sourceChunk : min((c+1)*sourceChunk, n)]
				// An entry takes about two bytes; size for the mean label.
				buf := make([]byte, 0, len(chunk)*(2*int(f.LabOff[n])/n+4))
				for _, v := range chunk {
					if buf, errs[c] = d.appendVertex(buf, v); errs[c] != nil {
						break
					}
				}
				parts[c] = buf
			}
		}()
	}
	wg.Wait()
	total := 0
	for c, p := range parts {
		if errs[c] != nil {
			return nil, nil, errs[c]
		}
		total += len(p)
	}
	src = make([]byte, 0, total)
	for _, p := range parts {
		src = append(src, p...)
	}
	return lens, src, nil
}

// sourceDeriver is one HLSources worker's scratch. For the label being
// derived, want[h] is the distance of hub h's entry while no edge has
// named it yet, and -1 (which no sum of nonnegative values equals)
// otherwise; pos[h] is that entry's position. edge and at collect each
// entry's two numbers, edge -1 while none is found.
type sourceDeriver struct {
	f        *FlatIndex
	want     []float64
	pos      []int32
	edge, at []int32
}

// appendVertex appends L(v)'s sources to buf: it scatters L(v) into
// the dense tables, then walks v's upward edges in CSR order and the
// label each leads to, naming every entry of L(v) by the first (edge,
// position) whose sum equals its distance bit for bit.
func (d *sourceDeriver) appendVertex(buf []byte, v int32) ([]byte, error) {
	f := d.f
	lo, hi := f.LabOff[v], f.LabOff[v+1]
	hubs, dists := f.LabHub[lo:hi], f.LabDist[lo:hi]
	d.edge, d.at = d.edge[:0], d.at[:0]
	for k, h := range hubs {
		e := int32(-1)
		if h == v && math.Float64bits(dists[k]) == 0 {
			e = 0 // the self entry
		} else {
			d.want[h], d.pos[h] = dists[k], int32(k)
		}
		d.edge, d.at = append(d.edge, e), append(d.at, 0)
	}
	want := d.want
	for i := f.UpOff[v]; i < f.UpOff[v+1]; i++ {
		u, w := f.UpTo[i], f.UpWt[i]
		ulo, uhi := f.LabOff[u], f.LabOff[u+1]
		uDists := f.LabDist[ulo:uhi]
		for j, h := range f.LabHub[ulo:uhi] {
			if math.Float64bits(w+uDists[j]) == math.Float64bits(want[h]) {
				k := d.pos[h]
				d.edge[k], d.at[k] = i-f.UpOff[v]+1, int32(j)
				want[h] = -1
			}
		}
	}
	for _, h := range hubs {
		want[h] = -1
	}
	for k, e := range d.edge {
		if e < 0 {
			return buf, fmt.Errorf("index: vertex %d label entry (%d, %g) is not one upward edge plus an entry of the label it leads to", v, hubs[k], dists[k])
		}
		buf = binary.AppendUvarint(buf, uint64(e))
		buf = binary.AppendUvarint(buf, uint64(d.at[k]))
	}
	return buf, nil
}

// RebuildLabels rebuilds the hub labels HLSources sealed: f carries the
// hierarchy (UpOff, UpTo, UpWt) over n = len(lens) vertices, and on
// success it also carries the labels, laid out in vertex-id order
// exactly as the origin's arena. Everything is untrusted input, and the
// checks rehydration would make happen here, once: the hierarchy is a
// well-formed acyclic upward CSR; the declared entries fit the stream
// (two bytes at least each) before any label array is allocated; every
// uvarint is minimal and every pointer in range; hubs strictly ascend;
// every distance is finite and nonnegative; and the stream ends with
// the last entry. Failures wrap ErrInvalidSources. Rehydrate trusts the
// result without scanning it again.
func RebuildLabels(f *FlatIndex, lens []uint32, src []byte) error {
	n := len(lens)
	if f.Kind != "hl" {
		return sourcesErrorf("flat index kind %q, want hl", f.Kind)
	}
	order, err := checkUpward(n, f)
	if err != nil {
		return sourcesErrorf("%v", err)
	}
	var total uint64
	for _, l := range lens {
		total += uint64(l)
	}
	if total > uint64(len(src))/2 {
		return sourcesErrorf("%d label entries declared in %d source bytes; each takes at least 2", total, len(src))
	}
	labOff := make([]int64, n+1)
	for v, l := range lens {
		labOff[v+1] = labOff[v] + int64(l)
	}
	labHub := make([]int32, total)
	labDist := make([]float64, total)

	var edges []upEdge
	pos := 0
	for _, v := range order {
		// v's upward edges, each as the label it leads to.
		edges = edges[:0]
		for i := f.UpOff[v]; i < f.UpOff[v+1]; i++ {
			u := f.UpTo[i]
			edges = append(edges, upEdge{lo: labOff[u], n: uint64(labOff[u+1] - labOff[u]), w: f.UpWt[i]})
		}
		lo, hi := labOff[v], labOff[v+1]
		prev := int32(-1)
		for k := lo; k < hi; k++ {
			var e, j uint64
			if pos+1 < len(src) && src[pos]|src[pos+1] < 0x80 {
				e, j = uint64(src[pos]), uint64(src[pos+1])
				pos += 2
			} else {
				var m1, m2 int
				if e, m1 = uvarint(src[pos:]); m1 > 0 {
					j, m2 = uvarint(src[pos+m1:])
				}
				if m1 == 0 || m2 == 0 {
					return sourcesErrorf("vertex %d entry %d: bad uvarint at byte %d", v, k-lo, pos)
				}
				pos += m1 + m2
			}
			var h int32
			var d float64
			switch {
			case e == 0 && j == 0:
				h, d = v, 0
			case e == 0:
				return sourcesErrorf("vertex %d entry %d: self entry with position %d", v, k-lo, j)
			case e > uint64(len(edges)):
				return sourcesErrorf("vertex %d entry %d: upward edge %d of %d", v, k-lo, e-1, len(edges))
			default:
				ed := &edges[e-1]
				if j >= ed.n {
					return sourcesErrorf("vertex %d entry %d: position %d past the %d entries of the label upward edge %d leads to", v, k-lo, j, ed.n, e-1)
				}
				h, d = labHub[ed.lo+int64(j)], ed.w+labDist[ed.lo+int64(j)]
			}
			if h <= prev {
				return sourcesErrorf("vertex %d label hubs not strictly ascending at entry %d", v, k-lo)
			}
			if !(d >= 0) || math.IsInf(d, 1) {
				return sourcesErrorf("vertex %d entry %d: distance %g; want finite nonnegative", v, k-lo, d)
			}
			prev = h
			labHub[k], labDist[k] = h, d
		}
	}
	if pos != len(src) {
		return sourcesErrorf("%d source bytes after the last label entry", len(src)-pos)
	}
	f.LabOff, f.LabHub, f.LabDist, f.rebuilt = labOff, labHub, labDist, true
	return nil
}

// upEdge is one upward edge of the vertex being rebuilt: the label it
// leads to (offset lo, n entries) and its weight.
type upEdge struct {
	lo int64
	n  uint64
	w  float64
}

// uvarint decodes a minimal uvarint from the front of b, returning the
// value and its byte length, or 0 bytes when b is empty, truncated,
// overflowing or not minimal (a longer spelling of a smaller number
// would let one label seal to two byte strings).
func uvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	x, m := binary.Uvarint(b)
	if m <= 0 || b[m-1] == 0 {
		return 0, 0
	}
	return x, m
}
