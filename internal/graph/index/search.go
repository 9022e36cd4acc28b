package index

import "math"

// searchState is one direction of a Dijkstra/A* search with O(1) reset:
// every per-vertex record carries a version stamp, so starting a new
// query just bumps the epoch instead of clearing O(n) memory — the
// whole point of an index is that queries touch far fewer than n
// vertices. The frontier is an indexed binary heap whose entries carry
// their own ordering key (plain distance for Dijkstra, distance plus
// heuristic for A*), so decrease-key works for both and a sift reads
// keys from the heap array alone.
//
// A vertex's state is one 16-byte record — version, tentative
// distance, and heap position, whose negative values say whether the
// vertex is waiting to be enqueued or already settled — so a relaxation
// touches one cache line per neighbour instead of one per array.
type searchState struct {
	epoch uint32
	rec   []searchRec
	heap  []heapEntry
}

// searchRec is valid only while ver equals the search's epoch.
type searchRec struct {
	dist float64 // tentative distance label
	ver  uint32
	pos  int32 // heap position, or unqueued / settledPos
}

// heapEntry is one frontier slot: the vertex and its ordering key.
type heapEntry struct {
	key float64
	v   int32
}

const (
	unqueued   = -1 // labeled but not in the heap
	settledPos = -2 // popped: the label is final
)

func newSearchState(n int) *searchState {
	return &searchState{rec: make([]searchRec, n)}
}

// begin starts a new search; all previous labels become stale.
//
//dpvet:hotpath
func (s *searchState) begin() {
	s.epoch++
	s.heap = s.heap[:0]
	if s.epoch == 0 { // wrapped: stamps from 2^32 queries ago are now live
		for i := range s.rec {
			s.rec[i].ver = 0
		}
		s.epoch = 1
	}
}

// distance returns v's tentative distance, Inf when unlabeled.
//
//dpvet:hotpath
func (s *searchState) distance(v int32) float64 {
	if r := &s.rec[v]; r.ver == s.epoch {
		return r.dist
	}
	return math.Inf(1)
}

// settled reports whether v has been popped in the current search.
//
//dpvet:hotpath
func (s *searchState) settled(v int32) bool {
	r := &s.rec[v]
	return r.ver == s.epoch && r.pos == settledPos
}

// update sets v's label and key, pushing or decreasing as needed.
//
//dpvet:hotpath
func (s *searchState) update(v int32, dist, key float64) {
	r := &s.rec[v]
	if r.ver != s.epoch {
		r.ver = s.epoch
		r.pos = unqueued
	}
	r.dist = dist
	if r.pos >= 0 {
		s.heap[r.pos].key = key
		s.siftUp(int(r.pos))
	} else {
		s.heap = append(s.heap, heapEntry{key: key, v: v})
		s.siftUp(len(s.heap) - 1)
	}
}

// empty reports whether the frontier is exhausted.
//
//dpvet:hotpath
func (s *searchState) empty() bool { return len(s.heap) == 0 }

// minKey returns the smallest frontier key, Inf when empty.
//
//dpvet:hotpath
func (s *searchState) minKey() float64 {
	if len(s.heap) == 0 {
		return math.Inf(1)
	}
	return s.heap[0].key
}

// pop removes the frontier vertex with the minimum key, marks it
// settled, and returns it with its distance label.
//
//dpvet:hotpath
func (s *searchState) pop() (int32, float64) {
	top := s.heap[0].v
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.rec[s.heap[0].v].pos = 0
	s.heap = s.heap[:last]
	r := &s.rec[top]
	r.pos = settledPos
	if last > 0 {
		s.siftDown(0)
	}
	return top, r.dist
}

//dpvet:hotpath
func (s *searchState) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		pe := s.heap[p]
		if pe.key <= e.key {
			break
		}
		s.heap[i] = pe
		s.rec[pe.v].pos = int32(i)
		i = p
	}
	s.heap[i] = e
	s.rec[e.v].pos = int32(i)
}

//dpvet:hotpath
func (s *searchState) siftDown(i int) {
	e := s.heap[i]
	n := len(s.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best, bk := l, s.heap[l].key
		if r := l + 1; r < n {
			if rk := s.heap[r].key; rk < bk {
				best, bk = r, rk
			}
		}
		if bk >= e.key {
			break
		}
		be := s.heap[best]
		s.heap[i] = be
		s.rec[be.v].pos = int32(i)
		i = best
	}
	s.heap[i] = e
	s.rec[e.v].pos = int32(i)
}
