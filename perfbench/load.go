package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// op is the traffic of a phase. prepare builds request k of client c,
// or reports that the client's traffic has run out; runLoop sends it
// through client; check reads the answer, reports any wrong value, and
// returns the number of pairs it answered. Only the exchange with the
// server is timed. Building requests and checking answers are the
// load generator's work: they stay off the latency, and their CPU time
// is taken off the phase's.
type op struct {
	client  *http.Client
	prepare func(c, k int) (req request, ok bool)
	check   func(c int, answer []byte) int
}

// request is one HTTP request of a phase; a nil body sends none.
type request struct {
	method, url string
	body        []byte
}

// sample is one completed request of a phase.
type sample struct {
	end     time.Duration // completion, from the phase start
	latency float64       // ms
	late    float64       // ms the send started after its due time (open loop)
}

// phase is the outcome of one load phase.
type phase struct {
	name             string
	sent, ok, failed int64
	pairs            int64
	elapsed          float64 // s
	samples          []sample
	openLoop         bool
	rate             float64
	firstErr         error
	cpu              float64 // process CPU seconds during the phase, less ownCPU
	ownCPU           float64 // CPU seconds of building requests and checking answers
}

// latencies returns the successful requests' latencies in completion
// order.
func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.latency
	}
	return out
}

func (p *phase) lateness() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.late
	}
	return out
}

// pairsPerSecond is the answered-pair throughput of the phase.
func (p *phase) pairsPerSecond() float64 { return float64(p.pairs) / p.elapsed }

// runLoop drives clients goroutines. In an open loop (rate > 0),
// request i of the phase is due at i/rate seconds and goes to client
// i mod clients. A client still busy at a request's due time sends it
// as soon as it can and times it from the due time, so a stall also
// counts against the requests queued behind it. A client that was idle
// sleeps until the due time and times the request from its send: the
// Go runtime wakes sleepers up to a millisecond late when the process
// is idle, and that slack belongs to the generator, not the system;
// load.lateness_p99_ms reports it. In a closed
// loop each client sends its next request when the previous one
// returns, and a request is timed from its send. Either way the time
// ends when the answer's body has been read. A phase ends at dur or
// after maxPerClient requests per client, whichever comes first.
func (e *env) runLoop(name string, rate float64, dur time.Duration, maxPerClient int, do op) *phase {
	clients := e.cfg.clients
	p := &phase{name: name, openLoop: rate > 0, rate: rate}
	var mu sync.Mutex
	var wg sync.WaitGroup
	// Every phase starts from a collected heap, so the collections that
	// fall inside it follow from its own allocation, not from leftovers.
	runtime.GC()
	cpu0 := cpuSeconds()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []sample
			var sent, ok, failed, pairs int64
			var own float64
			var firstErr error
			var buf bytes.Buffer
			for k := 0; maxPerClient <= 0 || k < maxPerClient; k++ {
				due := time.Since(start)
				if rate > 0 {
					due = time.Duration(float64(k*clients+c) / rate * float64(time.Second))
				}
				if due >= dur {
					break
				}
				t0 := beginOwnCPU()
				req, more := do.prepare(c, k)
				own += endOwnCPU(t0)
				if !more {
					if firstErr == nil {
						firstErr = errExhausted
					}
					break
				}
				idle := false
				if rate > 0 {
					if wait := due - time.Since(start); wait > 0 {
						time.Sleep(wait)
						idle = true
					}
				}
				sent++
				x, err := e.send(do.client, req, &buf)
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				t0 = beginOwnCPU()
				n := do.check(c, buf.Bytes())
				own += endOwnCPU(t0)
				ok++
				pairs += int64(n)
				sendAt, end := x.sent.Sub(start), x.done.Sub(start)
				from := due
				if rate == 0 || idle {
					from = sendAt
				}
				local = append(local, sample{end: end, latency: ms(end - from), late: ms(sendAt - due)})
			}
			mu.Lock()
			p.samples = append(p.samples, local...)
			p.sent += sent
			p.ok += ok
			p.failed += failed
			p.pairs += pairs
			p.ownCPU += own
			if p.firstErr == nil {
				p.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start).Seconds()
	p.cpu = cpuSeconds() - cpu0 - p.ownCPU
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].end < p.samples[j].end })
	e.attempted.Add(p.sent)
	e.failed.Add(p.failed)
	if p.firstErr != nil {
		fmt.Fprintf(e.errw, "phase %s: first failure: %v\n", name, p.firstErr)
	}
	e.report(p)
	return p
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// report prints the phase's counts and latency summary.
func (e *env) report(p *phase) {
	lat := p.latencies()
	kind := "closed loop"
	if p.openLoop {
		kind = fmt.Sprintf("open loop at %.0f req/s", p.rate)
	}
	fmt.Fprintf(e.out, "phase %-14s %s, %d clients: sent %d succeeded %d failed %d in %.2f s; %d latency samples, p50 %.4f ms p99 %.4f ms; %.0f pairs/s",
		p.name, kind, e.cfg.clients, p.sent, p.ok, p.failed, p.elapsed, len(lat),
		quantile(append([]float64(nil), lat...), 0.5), quantile(append([]float64(nil), lat...), 0.99), p.pairsPerSecond())
	if p.openLoop {
		late := p.lateness()
		fmt.Fprintf(e.out, "; lateness p50 %.4f ms p99 %.4f ms", quantile(append([]float64(nil), late...), 0.5), quantile(late, 0.99))
	}
	fmt.Fprintf(e.out, "; cpu %.3f s (less %.3f s building requests and checking answers), %.0f pairs per cpu-s", p.cpu, p.ownCPU, float64(p.pairs)/p.cpu)
	fmt.Fprintln(e.out)
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// beginOwnCPU pins the goroutine to its thread and reads the thread's
// CPU clock; endOwnCPU returns the CPU seconds the thread has used
// since and unpins it. The work between them must not block.
func beginOwnCPU() float64 {
	runtime.LockOSThread()
	return threadCPU()
}

func endOwnCPU(t0 float64) float64 {
	d := threadCPU() - t0
	runtime.UnlockOSThread()
	return d
}

// threadCPU reads the calling thread's CPU clock in seconds.
func threadCPU() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return math.NaN()
	}
	return time.Duration(ts.Nano()).Seconds()
}

// parseValues appends the "value" of every answer in an answer or
// batch-envelope body to dst; null (an unreachable pair) reads as +Inf.
func parseValues(body []byte, dst []float64) ([]float64, error) {
	key := []byte(`"value":`)
	for {
		i := bytes.Index(body, key)
		if i < 0 {
			return dst, nil
		}
		body = body[i+len(key):]
		j := bytes.IndexAny(body, ",}")
		if j < 0 {
			return dst, fmt.Errorf("unterminated value")
		}
		tok := body[:j]
		if string(tok) == "null" {
			dst = append(dst, math.Inf(1))
		} else {
			v, err := strconv.ParseFloat(string(tok), 64)
			if err != nil {
				return dst, fmt.Errorf("bad value %q: %w", tok, err)
			}
			dst = append(dst, v)
		}
		body = body[j:]
	}
}

// checksum folds the exact bits of values into one number.
func checksum(values []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range values {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}
