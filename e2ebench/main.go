// Command e2ebench is ANMAT's end-to-end benchmark. It runs the program
// inside its own process — the HTTP server on a loopback listener, the
// durability layer in a temporary directory with fsync on, inputs from
// internal/datagen under the given seed — drives one workload for the
// given number of seconds, checks every output against a computation
// made apart from the program, and prints one JSON result line last.
//
//	e2ebench --workload serve-deltas|serve-tenants|bulk --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the workload is replayed through the layers' public entry
// points with spans recorded around each call, and the result carries
// the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tmpRoot holds every temporary directory of the run.
	tmpRoot string
	// spanFile receives the traced run's spans as JSON lines ("" = none).
	spanFile string
	size     sizes
}

// sizes are the workload input sizes and traffic rates.
type sizes struct {
	deltaRows      int     // rows of each serve-deltas session
	deltaRate      float64 // serve-deltas open-loop delta batches/s
	tenantSessions int     // serve-tenants sessions
	tenantRows     int     // rows of each serve-tenants session
	tenantWrites   float64 // serve-tenants open-loop delta batches/s
	tenantReads    float64 // serve-tenants open-loop reads/s
	bulkRows       int     // rows of each bulk family upload
	bulkStoredRows int     // rows of the bulk stored-rule table
	bulkReads      float64 // bulk open-loop reads/s
	// minOpen is the least number of open-loop samples a run must take,
	// so the reported p99 has ten samples beyond it.
	minOpen int
}

func defaultSizes() sizes {
	return sizes{
		deltaRows:      25_000,
		deltaRate:      60,
		tenantSessions: 100,
		tenantRows:     2_000,
		tenantWrites:   300,
		tenantReads:    200,
		bulkRows:       20_000,
		bulkStoredRows: 250_000,
		bulkReads:      400,
		minOpen:        1000,
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(cfg config) (*result, error){
	"serve-deltas":  runServeDeltas,
	"serve-tenants": runServeTenants,
	"bulk":          runBulk,
}

func main() {
	cfg := config{size: defaultSizes()}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve-deltas, serve-tenants or bulk")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload serve-deltas|serve-tenants|bulk --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	const build = ".bench_build" // run.sh's output directory, ignored by git
	cfg.tmpRoot = filepath.Join(build, "tmp")
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if cfg.trace {
		cfg.spanFile = filepath.Join(build, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	fmt.Fprintf(os.Stderr, "e2ebench %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d NumCPU=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	t0 := time.Now()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wall %.1fs\n", time.Since(t0).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// finish turns a run's tally and checks into its result.
func finish(t *tally, c *checks, m map[string]metric) *result {
	t.print(os.Stderr)
	if t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "first failed operation:", t.firstErr)
	}
	err := c.err()
	if err != nil {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", err)
	}
	att, failed := t.totals()
	return &result{Correct: err == nil, Attempted: att, Failed: failed, Metrics: m}
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// dirMB is the total size of the regular files under dir.
func dirMB(dir string) (float64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return float64(n) / (1 << 20), err
}
