package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"
)

// tailPercentiles are the candidate tail percentiles, in tenths of a
// percent, highest first.
var tailPercentiles = []int{999, 990, 950, 900, 750}

// minTailSamples is the sample count below which only a median is
// reported: with fewer than forty samples no percentile has ten beyond
// it that is still a tail.
const minTailSamples = 40

// summary reports a set of individually recorded timings as its median
// plus the highest percentile that has at least ten samples beyond it.
type summary struct {
	N      int
	Median float64
	// TailP is the reported tail percentile in tenths of a percent (990
	// = p99); 0 when N < minTailSamples.
	TailP int
	Tail  float64
}

// rank is the 1-based nearest rank of percentile p (tenths of a percent)
// among n samples.
func rank(n, p int) int {
	r := (p*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	s.Median = median(v)
	if len(v) < minTailSamples {
		return s
	}
	for _, p := range tailPercentiles {
		if r := rank(len(v), p); len(v)-r >= 10 {
			s.TailP, s.Tail = p, v[r-1]
			break
		}
	}
	return s
}

// percentile returns the p-th percentile (tenths of a percent) of xs,
// and false when fewer than ten samples lie beyond it.
func percentile(xs []float64, p int) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	r := rank(len(v), p)
	return v[r-1], len(v)-r >= 10
}

func (s summary) String() string {
	if s.TailP == 0 {
		return fmt.Sprintf("p50=%.4g (n=%d)", s.Median, s.N)
	}
	return fmt.Sprintf("p50=%.4g p%g=%.4g (n=%d)", s.Median, float64(s.TailP)/10, s.Tail, s.N)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time, user and system, that the process has used so
// far over all its threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost is the wall-clock time of a stretch of work and the CPU time the
// process spent in it. On a shared virtual machine the wall-clock time
// of the same work moves with other tenants' load far more than its CPU
// time does (see README.md), so the end-to-end metrics are CPU costs and
// wall-clock figures go to stderr.
type cost struct{ wall, cpu time.Duration }

// meter times a stretch of work from its start.
type meter struct {
	wall time.Time
	cpu  time.Duration
	// gcPercent is the collector setting to restore at stop, when the
	// meter holds the collector off.
	gcPercent int
	held      bool
}

// startMeter starts timing. With held set it first collects the garbage
// and then holds the collector off until stop, for self-contained
// passes of bounded size: a collection cycle inside the work makes its
// CPU time depend on the machine, since the collector's background
// workers aim at a share of wall-clock time and burn more CPU the longer
// a cycle takes. Held off, the same pass costs the same CPU time within
// about ten percent; its allocation cost is still counted.
func startMeter(held bool) meter {
	m := meter{held: held}
	if held {
		runtime.GC()
		m.gcPercent = debug.SetGCPercent(-1)
	}
	m.wall, m.cpu = time.Now(), cpuTime()
	return m
}

func (m meter) stop() cost {
	c := cost{time.Since(m.wall), cpuTime() - m.cpu}
	if m.held {
		debug.SetGCPercent(m.gcPercent)
	}
	return c
}

// perCPUSecond is n units of work over each cost's CPU seconds.
func perCPUSecond(n float64, cs []cost) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = n / c.cpu.Seconds()
	}
	return out
}

// cpuSeconds and wallSeconds list the costs' CPU and wall-clock seconds.
func cpuSeconds(cs []cost) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.cpu.Seconds()
	}
	return out
}

func wallSeconds(cs []cost) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.wall.Seconds()
	}
	return out
}

// mid is the median of unsorted values.
func mid(xs []float64) float64 { return summarize(xs).Median }

// opRecord is one timed operation. For open-loop operations sched is
// when the operation was due, sent when the generator handed it to its
// queue; for closed-loop ones all three start times are equal.
type opRecord struct {
	kind              string
	sched, sent, done time.Time
	err               error
}

// latency is timed from the scheduled send time, so a stall also counts
// against every operation that queued up behind it.
func (r opRecord) latency() time.Duration { return r.done.Sub(r.sched) }

// lateness is how far behind its schedule the generator ran.
func (r opRecord) lateness() time.Duration { return r.sent.Sub(r.sched) }

// trafficOp is one operation of a workload's traffic mix. Operations of
// one queue run in order, one at a time; distinct queues run
// concurrently.
type trafficOp struct {
	queue int
	kind  string
	do    func() error
}

// openLoop issues n operations at a fixed rate: operation i is due at
// start + i/rate whatever happened to the ones before it. build runs on
// the generator goroutine when the operation is due (it may update the
// benchmark's model), and the operation then waits its turn on its queue.
func openLoop(rate float64, n, queues int, build func(i int) trafficOp) []opRecord {
	interval := time.Duration(float64(time.Second) / rate)
	recs := make([]opRecord, n)
	ops := make([]trafficOp, n)
	chans := make([]chan int, queues)
	var wg sync.WaitGroup
	for q := range chans {
		// Sized to every operation of the run, so the generator never
		// blocks on a slow queue: that is what keeps the loop open.
		chans[q] = make(chan int, n)
		wg.Add(1)
		go func(c chan int) {
			defer wg.Done()
			for i := range c {
				recs[i].err = ops[i].do()
				recs[i].done = time.Now()
			}
		}(chans[q])
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if w := time.Until(sched); w > 0 {
			time.Sleep(w)
		}
		ops[i] = build(i)
		recs[i].kind, recs[i].sched, recs[i].sent = ops[i].kind, sched, time.Now()
		chans[ops[i].queue] <- i
	}
	for _, c := range chans {
		close(c)
	}
	wg.Wait()
	return recs
}

// closedLoop runs clients that each issue n operations, the next only
// after the previous one completed. It returns the records and the
// measured duration.
func closedLoop(clients, n int, next func(client int) (string, error)) ([]opRecord, time.Duration) {
	out := make([][]opRecord, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				t := time.Now()
				kind, err := next(c)
				out[c] = append(out[c], opRecord{kind: kind, sched: t, sent: t, done: time.Now(), err: err})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []opRecord
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all, elapsed
}

// tally counts attempted and failed operations per operation type.
type tally struct {
	mu       sync.Mutex
	attempts map[string]int
	fails    map[string]int
	firstErr error
}

func newTally() *tally { return &tally{attempts: map[string]int{}, fails: map[string]int{}} }

func (t *tally) add(kind string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempts[kind]++
	if err != nil {
		t.fails[kind]++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("%s: %w", kind, err)
		}
	}
}

func (t *tally) addRecords(recs []opRecord) {
	for _, r := range recs {
		t.add(r.kind, r.err)
	}
}

func (t *tally) totals() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, n := range t.attempts {
		attempted += n
		failed += t.fails[k]
	}
	return attempted, failed
}

func (t *tally) print(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kinds := make([]string, 0, len(t.attempts))
	for k := range t.attempts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(w, "  ops %-14s attempted=%d failed=%d\n", k, t.attempts[k], t.fails[k])
	}
}

// latencies returns the latencies in ms of the successful records of the
// given kinds (all kinds when none are named).
func latencies(recs []opRecord, kinds ...string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.err != nil || (len(kinds) > 0 && !contains(kinds, r.kind)) {
			continue
		}
		out = append(out, ms(r.latency()))
	}
	return out
}

func lateness(recs []opRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.lateness())
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}
