package main

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/discovery"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // unsorted on purpose
	}
	return out
}

func TestSummaryReportsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n, tailP int
		tail     float64
	}{
		{39, 0, 0},      // below forty samples: the median alone
		{40, 750, 30},   // p75 is rank 30, ten beyond; p90 would have four
		{100, 900, 90},  // p90: ten beyond; p95 would have five
		{200, 950, 190}, // p95: ten beyond
		{1000, 990, 990},
		{9999, 990, 9900}, // p99.9 has nine beyond
		{10000, 999, 9990},
	} {
		s := summarize(seq(c.n))
		if s.N != c.n || s.TailP != c.tailP || s.Tail != c.tail {
			t.Errorf("n=%d: got %+v, want p%d=%v", c.n, s, c.tailP, c.tail)
		}
		if s.TailP > 0 && c.n-rank(c.n, s.TailP) < 10 {
			t.Errorf("n=%d: p%d has fewer than ten samples beyond it", c.n, s.TailP)
		}
	}
	if s := summarize([]float64{3, 1, 2, 4}); s.Median != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", s.Median)
	}
	if _, ok := percentile(seq(999), 990); ok {
		t.Error("p99 of 999 samples reported as having ten beyond it")
	}
	if v, ok := percentile(seq(1000), 990); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
}

// A generator that cannot keep up falls behind its schedule: the lateness
// shows it, and each operation's latency still runs from when it was due.
func TestOpenLoopTimesFromScheduleAndReportsLateness(t *testing.T) {
	const n, rate = 40, 1000.0 // due every millisecond
	build := func(i int) trafficOp {
		time.Sleep(3 * time.Millisecond) // the generator needs 3ms per operation
		return trafficOp{queue: i % 2, kind: "op", do: func() error { return nil }}
	}
	recs := openLoop(rate, n, 2, build)
	interval := time.Duration(float64(time.Second) / rate)
	for i, r := range recs {
		if i > 0 && r.sched.Sub(recs[i-1].sched) != interval {
			t.Fatalf("op %d due %v after op %d, want %v", i, r.sched.Sub(recs[i-1].sched), i-1, interval)
		}
		if r.latency() != r.done.Sub(r.sched) || r.latency() < r.lateness() {
			t.Fatalf("op %d: latency %v not timed from its schedule (lateness %v)", i, r.latency(), r.lateness())
		}
	}
	// Op i is built after i+1 generator steps of 3ms but due after i ms.
	if late := recs[n-1].lateness(); late < time.Duration(n)*2*time.Millisecond {
		t.Errorf("last op %v late, want at least %v", late, time.Duration(n)*2*time.Millisecond)
	}

	// A generator that keeps up is never more than a little late, while a
	// slow queue makes latency grow: the backlog counts.
	slow := openLoop(rate, n, 1, func(i int) trafficOp {
		return trafficOp{kind: "op", do: func() error { time.Sleep(2 * time.Millisecond); return nil }}
	})
	if got := summarize(lateness(slow)).Median; got > 1 {
		t.Errorf("median lateness %vms with an idle generator", got)
	}
	if got := slow[n-1].latency(); got < time.Duration(n)*time.Millisecond {
		t.Errorf("last op latency %v: queueing behind a slow queue not counted", got)
	}
}

// fixture is a small served phone/state table with its discovered rule,
// the benchmark's model of it and the detector's violations.
type fixture struct {
	model *phoneModel
	rule  phoneRule
	rules []*pfd.PFD
	tbl   *table.Table
	vs    []pfd.Violation
}

func newFixture(t *testing.T) fixture {
	t.Helper()
	ds := datagen.PhoneStateSkewed(3000, 0.01, 11, 1.4)
	res, err := discovery.Discover(ds.Table, discovery.Default())
	if err != nil {
		t.Fatal(err)
	}
	rule, err := parsePhoneRule(res.PFDs)
	if err != nil {
		t.Fatal(err)
	}
	f := fixture{model: newPhoneModel(ds.Table, rule.blockKeyLen()), rule: rule, rules: res.PFDs}
	rng := rand.New(rand.NewSource(3))
	eng, err := stream.NewEngine(ds.Table.Clone(), res.PFDs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := eng.Apply(f.model.next(rng)); err != nil {
			t.Fatal(err)
		}
	}
	f.vs = eng.Violations()
	if f.tbl, err = f.model.table("t"); err != nil {
		t.Fatal(err)
	}
	return f
}

func dropOne(vs []pfd.Violation, i int) []pfd.Violation {
	return append(append([]pfd.Violation(nil), vs[:i]...), vs[i+1:]...)
}

func TestOracleCatchesDroppedViolationAndChangedCell(t *testing.T) {
	f := newFixture(t)
	if len(f.vs) < 10 {
		t.Fatalf("fixture has only %d violations", len(f.vs))
	}
	if err := checkOracle(f.model, f.rule, f.vs); err != nil {
		t.Fatalf("oracle rejects the engine's violations: %v", err)
	}
	for _, i := range []int{0, len(f.vs) / 2, len(f.vs) - 1} {
		if checkOracle(f.model, f.rule, dropOne(f.vs, i)) == nil {
			t.Errorf("oracle accepts violation %d dropped", i)
		}
	}
	v := f.vs[0]
	row := v.Tuples[len(v.Tuples)-1]
	saved := f.model.rows[row]
	f.model.rows[row].state = f.model.wrongState(saved.state, rand.New(rand.NewSource(1)))
	if checkOracle(f.model, f.rule, f.vs) == nil {
		t.Error("oracle accepts a model with one cell changed")
	}
	f.model.rows[row] = saved
}

func TestDetectEqualityCatchesDroppedViolationAndChangedCell(t *testing.T) {
	f := newFixture(t)
	res, err := detect.New(f.tbl, detect.Options{}).DetectAllContext(context.Background(), f.rules, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSame("x", f.vs, res.Violations); err != nil {
		t.Fatalf("engine and DetectAllContext disagree on the model table: %v", err)
	}
	if checkSame("x", dropOne(f.vs, 1), res.Violations) == nil {
		t.Error("accepts a dropped violation")
	}
	changed := append([]pfd.Violation(nil), f.vs...)
	changed[2].Observed += "x"
	if checkSame("x", changed, res.Violations) == nil {
		t.Error("accepts a changed cell")
	}
}

func TestFoldCatchesLostChange(t *testing.T) {
	ds := datagen.PhoneStateSkewed(2000, 0.01, 5, 0)
	res, err := discovery.Discover(ds.Table, discovery.Default())
	if err != nil {
		t.Fatal(err)
	}
	rule, err := parsePhoneRule(res.PFDs)
	if err != nil {
		t.Fatal(err)
	}
	m := newPhoneModel(ds.Table, rule.blockKeyLen())
	eng, err := stream.NewEngine(ds.Table.Clone(), res.PFDs)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := map[string]pfd.Violation{}, map[string]pfd.Violation{}
	for _, v := range eng.Violations() {
		good[vioKey(v)], bad[vioKey(v)] = v, v
	}
	rng := rand.New(rand.NewSource(9))
	lost := false
	for i := 0; i < 1000 && !lost; i++ {
		d, err := eng.Apply(m.next(rng))
		if err != nil {
			t.Fatal(err)
		}
		// After a while, lose the first change that adds a violation the
		// reader had never seen, and stop there.
		for j, v := range d.Added {
			if _, seen := good[vioKey(v)]; i >= 100 && !seen {
				good = foldStream(good, d)
				d.Added = append(append([]pfd.Violation(nil), d.Added[:j]...), d.Added[j+1:]...)
				lost = true
				break
			}
		}
		if !lost {
			good = foldStream(good, d)
		}
		bad = foldStream(bad, d)
	}
	if !lost {
		t.Fatal("no diff added a new violation")
	}
	if err := checkFold(good, eng.Violations()); err != nil {
		t.Fatalf("folding every diff: %v", err)
	}
	if checkFold(bad, eng.Violations()) == nil {
		t.Error("accepts a fold that lost one change")
	}
}

func TestRestoreCheckCatchesChangedStateOrSeq(t *testing.T) {
	st := sessionState{listing: []byte(`{"violations":[{"observed":"FL"}]}`), seq: 7}
	if err := checkRestored("s1", st, st); err != nil {
		t.Fatal(err)
	}
	if checkRestored("s1", st, sessionState{listing: []byte(`{"violations":[{"observed":"GA"}]}`), seq: 7}) == nil {
		t.Error("accepts a changed cell")
	}
	if checkRestored("s1", st, sessionState{listing: st.listing, seq: 6}) == nil {
		t.Error("accepts a lost batch")
	}
}

func TestGroundTruthAndDiscoveryChecks(t *testing.T) {
	injected := map[int]bool{}
	var repairs []detect.Repair
	for r := 0; r < 100; r += 10 {
		injected[r] = true
		repairs = append(repairs, detect.Repair{Cell: table.CellRef{Row: r}})
	}
	if err := checkGroundTruth("x", repairs, injected, groundTruth); err != nil {
		t.Fatal(err)
	}
	shifted := append([]detect.Repair(nil), repairs...)
	for i := range shifted[:3] {
		shifted[i].Cell.Row++ // three flagged rows that were never dirtied
	}
	if checkGroundTruth("x", shifted, injected, groundTruth) == nil {
		t.Error("accepts precision and recall of 0.7")
	}
	if checkDiscovered("x", []string{"phone->state"}, []string{"phone->state"}) != nil {
		t.Error("rejects the planted rule")
	}
	if checkDiscovered("x", []string{"state->phone"}, []string{"phone->state"}) == nil {
		t.Error("accepts a missing planted rule")
	}
}

func TestPatternRegexp(t *testing.T) {
	for _, c := range []struct {
		pat, val string
		want     bool
	}{
		{`\A{2}<408>\A*`, "5040812345", true},
		{`\A{2}<408>\A*`, "5050812345", false},
		{`<850>\D{7}`, "8501234567", true},
		{`<850>\D{7}`, "850123456", false},
		{`\LU\LL+\ \S`, "Ab -", true},
	} {
		re, err := patternRegexp(c.pat)
		if err != nil {
			t.Fatalf("%s: %v", c.pat, err)
		}
		if got := re.MatchString(c.val); got != c.want {
			t.Errorf("%s ~ %s = %v, want %v", c.pat, c.val, got, c.want)
		}
	}
}

// Every workload, untraced and traced, at a tiny size: it must stop every
// goroutine it started and remove its temporary directories.
func TestWorkloadsCleanUp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	tiny := sizes{
		deltaRows: 2000, deltaRate: 100,
		tenantSessions: 4, tenantRows: 2000, tenantWrites: 60, tenantReads: 40,
		bulkRows: 2000, bulkStoredRows: 4000, bulkReads: 100,
	}
	base := runtime.NumGoroutine()
	for _, name := range []string{"serve-deltas", "serve-tenants", "bulk"} {
		for _, trace := range []bool{false, true} {
			tmp := t.TempDir()
			cfg := config{workload: name, seed: 1, seconds: 1, trace: trace, tmpRoot: tmp, size: tiny}
			if _, err := workloads[name](cfg); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			left, err := os.ReadDir(tmp)
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				t.Errorf("%s trace=%v left %d entries in its temporary root", name, trace, len(left))
			}
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(20 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				buf := make([]byte, 1<<16)
				t.Fatalf("%s trace=%v: %d goroutines left running, baseline %d\n%s", name, trace, n, base, buf[:runtime.Stack(buf, true)])
			}
		}
	}
}
