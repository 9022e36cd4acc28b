package index

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// PairCache is a lossy, lock-free s-t result cache for repeated
// distance queries: one power-of-two array of direct-mapped slots, each
// guarded by a seqlock. Keys are (s, t) vertex pairs; callers on
// undirected topologies should normalize s <= t so both orientations
// share one entry. A pair outside [0, 2^31) — beyond any int32 vertex
// id an index holds — always misses and is never stored, so the packed
// 64-bit key is exact for every pair it keeps. A Put that lands on a
// slot another writer holds is dropped, and a Get that overlaps a write
// to its slot misses: the cache may forget, but never returns a value
// stored for another pair.
type PairCache struct {
	slots []pairSlot
	shift uint // 64 - log2(len(slots)): the hash's top bits pick the slot
	stats [statStripes]statStripe
}

// pairSlot is one seqlocked entry. seq is even and nonzero while the
// slot holds a complete (key, val), odd while a Put rewrites it, and
// zero until the first Put.
type pairSlot struct {
	seq, key, val atomic.Uint64
}

// The hit/miss counters live in statStripes stripes of one cache line
// each, chosen by the slot hash's top bits, so concurrent lookups do
// not serialize on one counter.
const (
	statBits    = 3
	statStripes = 1 << statBits
)

type statStripe struct {
	hits, misses atomic.Uint64
	_            [48]byte
}

// DefaultCacheCapacity is the slot count used by NewPairCache when
// capacity <= 0: 3 MiB of 24-byte slots.
const DefaultCacheCapacity = 1 << 17

// NewPairCache returns a cache of capacity slots, rounded up to a power
// of two.
func NewPairCache(capacity int) *PairCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	lg := bits.Len(uint(capacity - 1))
	return &PairCache{slots: make([]pairSlot, 1<<lg), shift: uint(64 - lg)}
}

// locate packs (s, t) into its key and hashes the key to a slot and a
// stats stripe; ok is false for a pair outside [0, 2^31).
//
//dpvet:hotpath
func (c *PairCache) locate(s, t int) (key uint64, sl *pairSlot, st *statStripe, ok bool) {
	ok = uint(s) <= math.MaxInt32 && uint(t) <= math.MaxInt32
	if ok {
		key = uint64(s)<<32 | uint64(t)
	}
	h := key * 0x9e3779b97f4a7c15
	return key, &c.slots[h>>c.shift], &c.stats[h>>(64-statBits)], ok
}

// Get returns the cached distance for (s, t), if present, counting the
// lookup in the hit/miss statistics.
//
//dpvet:hotpath
func (c *PairCache) Get(s, t int) (float64, bool) {
	key, sl, st, ok := c.locate(s, t)
	if ok {
		if v, hit := sl.read(sl.seq.Load(), key); hit {
			st.hits.Add(1)
			return math.Float64frombits(v), true
		}
	}
	st.misses.Add(1)
	return 0, false
}

// read returns the slot's value bits if, from the sequence load that
// gave seq until now, the slot held key with no write in between.
//
//dpvet:hotpath
func (sl *pairSlot) read(seq, key uint64) (uint64, bool) {
	if seq == 0 || seq&1 != 0 || sl.key.Load() != key {
		return 0, false
	}
	v := sl.val.Load()
	return v, sl.seq.Load() == seq
}

// Put records the distance for (s, t) in its slot, replacing whatever
// pair the slot held. It is dropped when the slot is mid-write or
// another writer wins it, and ignored for a pair outside [0, 2^31).
//
//dpvet:hotpath
func (c *PairCache) Put(s, t int, d float64) {
	key, sl, _, ok := c.locate(s, t)
	if !ok {
		return
	}
	seq := sl.seq.Load()
	if seq&1 != 0 || !sl.seq.CompareAndSwap(seq, seq+1) {
		return
	}
	sl.key.Store(key)
	sl.val.Store(math.Float64bits(d))
	sl.seq.Store(seq + 2)
}

// Stats reports the cumulative Get hit/miss counters, summed across
// the stripes.
func (c *PairCache) Stats() (hits, misses uint64) {
	for i := range c.stats {
		hits += c.stats[i].hits.Load()
		misses += c.stats[i].misses.Load()
	}
	return hits, misses
}
