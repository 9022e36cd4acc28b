package index

import (
	"math"
	"strconv"
	"sync"
	"testing"
)

// TestPairCacheNoTruncationCollision pins the packed-key contract: a
// pair outside [0, 2^31) is never stored, never hits, and never aliases
// an in-range pair whose packed key its truncated bits would match.
func TestPairCacheNoTruncationCollision(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("out-of-range pattern needs 64-bit ints")
	}
	const shift = 1 << 32
	in := [][2]int{{1, 2}, {0, 0}, {0, math.MaxInt32}, {math.MaxInt32, 0}}
	out := [][2]int{
		{-1, 2},
		{1, -2},
		{math.MinInt32, 0},
		{math.MaxInt32 + 1, 0},
		{0, math.MaxInt32 + 1}, // t spills into s's half of the key
		{1 + shift, 2},         // high bits of s truncated away
		{1, 2 + shift},         // high bits of t truncated away
		{shift, 0},             // s truncated to zero
		{math.MaxInt32 + shift, math.MaxInt32},
	}
	for i, p := range in {
		c := NewPairCache(1) // one slot: every pair lands on it
		c.Put(p[0], p[1], float64(100+i))
		for _, q := range out {
			if d, ok := c.Get(q[0], q[1]); ok {
				t.Errorf("Get(%d, %d) hit with %g after Put(%d, %d); out-of-range pair aliased a cached one", q[0], q[1], d, p[0], p[1])
			}
			c.Put(q[0], q[1], -1) // ignored: must not evict or overwrite p
		}
		if d, ok := c.Get(p[0], p[1]); !ok || d != float64(100+i) {
			t.Errorf("Get(%d, %d) = (%g, %v), want (%g, true)", p[0], p[1], d, ok, float64(100+i))
		}
	}
}

func TestPairCacheStats(t *testing.T) {
	c := NewPairCache(64)
	c.Get(1, 2)
	c.Put(1, 2, 7)
	c.Get(1, 2)
	c.Get(1, 2)
	c.Get(9, 9)
	hits, misses := c.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("Stats() = (%d, %d), want (2, 2)", hits, misses)
	}
}

// cachedValue is the value a seqlock test stores for (s, t): distinct
// for every pair, so a value read back for the wrong pair, or mixed from
// two writes, cannot pass for the right one.
func cachedValue(s, t int) float64 {
	return math.Float64frombits(uint64(s)<<32 | uint64(t) ^ 0x3ff0_0000_0000_0000)
}

// TestPairCacheSeqlockRace runs writers that collide on the one slot of
// a tiny cache against readers of the same keys. Every hit must return the
// value stored for that key, bit for bit; run it under -race.
func TestPairCacheSeqlockRace(t *testing.T) {
	c := NewPairCache(1)
	const keys, rounds = 64, 2000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (r*7 + w) % keys
				c.Put(k, k+w%2, cachedValue(k, k+w%2))
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (r*5 + w) % keys
				if d, ok := c.Get(k, k+w%2); ok && math.Float64bits(d) != math.Float64bits(cachedValue(k, k+w%2)) {
					t.Errorf("Get(%d, %d) = %#x, want %#x", k, k+w%2, math.Float64bits(d), math.Float64bits(cachedValue(k, k+w%2)))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if hits, misses := c.Stats(); hits+misses != 4*rounds {
		t.Errorf("Stats() counted %d lookups, want %d", hits+misses, 4*rounds)
	}
}

// TestPairCacheTornRead forces the reads a concurrent Put can tear:
// a slot caught mid-write, and a read whose two sequence loads straddle
// a completed write. Both must miss rather than return a value.
func TestPairCacheTornRead(t *testing.T) {
	c := NewPairCache(1)
	c.Put(1, 2, 3)
	key, sl, _, _ := c.locate(1, 2)

	seq := sl.seq.Load()
	c.Put(1, 2, 4) // a whole write between the two sequence loads
	if v, ok := sl.read(seq, key); ok {
		t.Errorf("read straddling a write hit with %g", math.Float64frombits(v))
	}

	seq = sl.seq.Load()
	if !sl.seq.CompareAndSwap(seq, seq+1) { // a writer holds the slot
		t.Fatal("could not take the slot")
	}
	if d, ok := c.Get(1, 2); ok {
		t.Errorf("Get on a slot mid-write hit with %g", d)
	}
	c.Put(1, 2, 5) // dropped: the slot is busy
	sl.seq.Store(seq + 2)
	if d, ok := c.Get(1, 2); !ok || d != 4 {
		t.Errorf("Get after the write = (%g, %v), want (4, true)", d, ok)
	}
}
