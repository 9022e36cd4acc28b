package dp

import (
	crand "crypto/rand"
	"fmt"
	"math"
	"math/rand"           //dpvet:allow noiserand -- blessed seeded source: deterministic replay for golden releases, opt-in via WithDeterministicSeed only
	randv2 "math/rand/v2" //dpvet:allow noiserand -- ChaCha8 from math/rand/v2 is the crypto-grade generator behind the default NoiseSource
	"sync"
)

// NoiseSource is the single entry point for sampling mechanism noise.
// Every mechanism in this repository requests its Laplace draws through
// this interface — either one value at a time (SampleLaplace) or, on the
// hot release paths, a whole block at once (FillLaplace), which keeps
// the per-draw cost to the sampler itself.
//
// Draw-order contract: FillLaplace(scale, dst) produces exactly the
// sequence of len(dst) consecutive SampleLaplace(scale) draws for
// deterministic sources, so refactoring a scalar sampling loop into one
// block fill never changes a seeded release.
//
// Sampling from a crypto source (SampleLaplace/FillLaplace) is confined
// to one goroutine — its stream state is unsynchronized — but Child IS
// safe to call concurrently on a crypto source: it must hand out a
// freshly seeded stream without touching the parent's stream state
// (dpgraph shares one crypto root across parallel mechanism calls).
// Seeded and wrapped sources serialize all access internally and may be
// shared freely.
type NoiseSource interface {
	// SampleLaplace draws one Lap(scale) value. It panics if scale is
	// not positive and finite (mirroring NewLaplace).
	SampleLaplace(scale float64) float64

	// FillLaplace fills dst with independent Lap(scale) draws. The fill
	// is sequential: it consumes the stream exactly as len(dst)
	// SampleLaplace calls would.
	FillLaplace(scale float64, dst []float64)

	// Child returns an independent stream for one mechanism call.
	// Crypto sources return a fresh entropy-backed stream with no
	// shared state; seeded sources return a child stream seeded from
	// the root (the split sequence is part of the reproducibility
	// contract); wrapped shared streams return themselves.
	Child() NoiseSource

	// Deterministic reports whether draws are reproducible from a seed.
	// Draw order is part of a deterministic source's contract, so
	// sessions using one run releases serially.
	Deterministic() bool
}

// checkNoiseScale validates a Laplace scale the way NewLaplace does.
func checkNoiseScale(scale float64) {
	if !(scale > 0) || math.IsInf(scale, 1) {
		panic(fmt.Sprintf("dp: Laplace scale must be positive and finite, got %g", scale))
	}
}

// laplaceFromRand draws one Lap(scale) value from a *rand.Rand by
// inverse-CDF sampling. This is the exact historical formula of
// Laplace.Sample; seeded sources must keep it bit-identical so checked-in
// golden releases stay valid.
//
//dpvet:hotpath
func laplaceFromRand(rng *rand.Rand, scale float64) float64 {
	u := rng.Float64() - 0.5
	// Guard the measure-zero endpoints so Log never sees 0.
	for u == 0.5 || u == -0.5 { //dpvet:allow floatcmp -- exact endpoint rejection: 0.5 is representable and the loop re-draws on exact hits only
		u = rng.Float64() - 0.5
	}
	if u < 0 {
		return scale * math.Log(1+2*u)
	}
	return -scale * math.Log(1-2*u)
}

// ---------------------------------------------------------------------
// Crypto-entropy source
// ---------------------------------------------------------------------

// cryptoNoise expands operating-system entropy through a ChaCha8 stream
// cipher: each source draws one 32-byte seed from crypto/rand and then
// generates uniforms at memory speed, so release throughput is bounded
// by the Laplace transform rather than by getrandom syscalls (raw
// crypto/rand reads cost ~20 ns per draw; the keyed ChaCha8 expansion,
// the same construction the Go runtime uses for its internal random
// state, costs ~2 ns). Not safe for concurrent use by itself; Child
// returns independent streams for that.
type cryptoNoise struct {
	cha *randv2.ChaCha8
}

// NewCryptoNoise returns a crypto-grade NoiseSource: one ChaCha8 stream
// seeded from crypto/rand. Seeding and reproducibility are unavailable
// by design. Fills are serial; parallel releases draw from Child
// streams instead.
func NewCryptoNoise() NoiseSource {
	var seed [32]byte
	if _, err := crand.Read(seed[:]); err != nil {
		panic(fmt.Sprintf("dp: crypto/rand read failed: %v", err))
	}
	return &cryptoNoise{cha: randv2.NewChaCha8(seed)}
}

// uniform returns the next uniform draw in [0, 1) at float64 resolution
// (53 random bits).
//
//dpvet:hotpath
func (c *cryptoNoise) uniform() float64 {
	return float64(c.cha.Uint64()>>11) / (1 << 53)
}

func (c *cryptoNoise) SampleLaplace(scale float64) float64 {
	checkNoiseScale(scale)
	return c.laplace(scale)
}

//dpvet:hotpath
func (c *cryptoNoise) laplace(scale float64) float64 {
	u := c.uniform() - 0.5
	// u == 0.5 cannot occur: uniform() < 1.
	for u == -0.5 { //dpvet:allow floatcmp -- exact endpoint rejection before Log; -0.5 is representable
		u = c.uniform() - 0.5
	}
	if u < 0 {
		return scale * math.Log(1+2*u)
	}
	return -scale * math.Log(1-2*u)
}

// FillLaplace converts the ChaCha8 stream into Laplace draws one value
// at a time. It performs no allocation: the stream state lives in the
// receiver and dst is caller-owned.
//
//dpvet:hotpath
func (c *cryptoNoise) FillLaplace(scale float64, dst []float64) {
	checkNoiseScale(scale)
	for i := range dst {
		dst[i] = c.laplace(scale)
	}
}

func (c *cryptoNoise) Child() NoiseSource {
	// Fresh independent entropy stream. Child must never read the
	// parent's cha stream: dpgraph calls Child concurrently on one
	// shared crypto root (see the NoiseSource doc), so forking from the
	// parent stream here would be a data race.
	return NewCryptoNoise()
}

func (c *cryptoNoise) Deterministic() bool { return false }

// ---------------------------------------------------------------------
// Seeded (deterministic, splittable) and wrapped shared sources
// ---------------------------------------------------------------------

// seededNoise derives draws from a math/rand stream. In root mode
// (NewSeededNoise) Child splits off an independent child stream seeded
// from the root — the splittable replacement for the historical per-call
// child-seeding dance — while in shared mode (WrapRand) Child returns
// the same stream, preserving the semantics of a caller-supplied
// *rand.Rand shared across mechanism calls. All access is serialized
// internally, so a seededNoise may be handed to concurrent goroutines;
// draw order is only reproducible when calls arrive in a fixed order.
type seededNoise struct {
	mu     sync.Mutex
	rng    *rand.Rand
	shared bool
}

// NewSeededNoise returns a deterministic, splittable NoiseSource: the
// same seed always yields the same draw and split sequence. Seeded noise
// is predictable by anyone who knows the seed and therefore offers NO
// privacy; it exists for tests, benchmarks, and experiments.
func NewSeededNoise(seed int64) NoiseSource {
	return &seededNoise{rng: rand.New(rand.NewSource(seed))}
}

// WrapRand adapts a caller-supplied *rand.Rand into a NoiseSource whose
// Child is the stream itself, so successive mechanism calls consume one
// shared sequence — the contract experiments with a shared seeded stream
// rely on. Access is serialized internally.
func WrapRand(rng *rand.Rand) NoiseSource {
	return &seededNoise{rng: rng, shared: true}
}

func (s *seededNoise) SampleLaplace(scale float64) float64 {
	checkNoiseScale(scale)
	s.mu.Lock()
	defer s.mu.Unlock()
	return laplaceFromRand(s.rng, scale)
}

// FillLaplace draws sequentially under the stream lock. The explicit
// Unlock (rather than defer) keeps the guarded block-fill benchmark at
// zero overhead per fill; laplaceFromRand never panics for a scale that
// already passed checkNoiseScale, so the lock cannot leak.
//
//dpvet:hotpath
func (s *seededNoise) FillLaplace(scale float64, dst []float64) {
	checkNoiseScale(scale)
	s.mu.Lock()
	for i := range dst {
		dst[i] = laplaceFromRand(s.rng, scale)
	}
	s.mu.Unlock()
}

func (s *seededNoise) Child() NoiseSource {
	if s.shared {
		return s
	}
	s.mu.Lock()
	seed := s.rng.Int63()
	s.mu.Unlock()
	return &seededNoise{rng: rand.New(rand.NewSource(seed))}
}

func (s *seededNoise) Deterministic() bool { return true }
