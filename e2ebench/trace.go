package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/discovery"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/obs"
	"github.com/anmat/anmat/internal/persist"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/profile"
	"github.com/anmat/anmat/internal/server"
	"github.com/anmat/anmat/internal/shard"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 = a root
	Op     int    `json:"op"`     // operation id; -1 = set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) begin(name string, parent, op int) openSpan {
	t.mu.Lock()
	id := t.next
	t.next++
	t.mu.Unlock()
	return openSpan{t, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.epoch))}}
}

func (o openSpan) end() span {
	o.s.End = int64(time.Since(o.t.epoch))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return o.s
}

// around records one span around f.
func (t *tracer) around(name string, parent, op int, f func() error) (span, error) {
	o := t.begin(name, parent, op)
	err := f()
	return o.end(), err
}

func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) children(id int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// self is a span's duration minus the part of it its children cover.
func (t *tracer) self(s span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, end := int64(0), s.Start
	for _, k := range kids {
		from, to := max(k.Start, end), min(k.End, s.End)
		if to > from {
			covered += to - from
			end = to
		}
	}
	return s.dur() - time.Duration(covered)
}

func (t *tracer) write(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func totalMS(spans []span) float64 {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return ms(d)
}

// allocs reads the process's cumulative heap allocation count without
// stopping the world.
func allocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timingPersister is a core.Persister that records a span around every
// journal append and checkpoint of the wrapped manager, as a child of
// the apply in progress.
type timingPersister struct {
	*persist.Manager
	tr         *tracer
	parent, op int
	// off passes calls straight through, for the untraced requests.
	off bool
}

func (p *timingPersister) around(name string, f func() error) error {
	if p.off {
		return f()
	}
	_, err := p.tr.around(name, p.parent, p.op, f)
	return err
}

func (p *timingPersister) Journal(ctx context.Context, id string, seq int64, b stream.Batch) error {
	return p.around("persist.journal", func() error { return p.Manager.Journal(ctx, id, seq, b) })
}

func (p *timingPersister) JournalSharded(ctx context.Context, id string, k int, seq int64, b stream.Batch) error {
	return p.around("persist.journal", func() error { return p.Manager.JournalSharded(ctx, id, k, seq, b) })
}

func (p *timingPersister) Checkpoint(snap *core.SessionSnapshot) error {
	return p.around("persist.checkpoint", func() error { return p.Manager.Checkpoint(snap) })
}

func scrapeMetrics(srv *server.Server) ([]obs.Sample, error) {
	body, err := handlerGet(srv.Handler(), "/metrics")
	if err != nil {
		return nil, err
	}
	samples, _, err := obs.ParseText(string(body))
	return samples, err
}

// layerStats accumulates the set-up layers of a traced run: CSV parse,
// profile, discovery, detection, repairs and shard bootstrap.
type layerStats struct {
	candidates           int
	detectRows           int
	detectAllocs         uint64
	translator, nodeBoot time.Duration
	merge                time.Duration
}

// pipeline traces the upload pipeline of one table through the layers'
// entry points and returns the table and the discovered rules.
func (ls *layerStats) pipeline(tr *tracer, name string, csv []byte, dcfg discovery.Config, op int) (*table.Table, []*pfd.PFD, error) {
	var t *table.Table
	var res *discovery.Result
	_, err := tr.around("table.read_csv", -1, op, func() (err error) {
		t, err = table.ReadCSV(name, bytes.NewReader(csv))
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	tr.around("profile.profile", -1, op, func() error { profile.Profile(t); return nil })
	if _, err := tr.around("discovery.discover", -1, op, func() (err error) {
		res, err = discovery.DiscoverContext(context.Background(), t, dcfg)
		return err
	}); err != nil {
		return nil, nil, err
	}
	ls.candidates += len(res.Stats)
	if err := ls.detect(tr, t, res.PFDs, op); err != nil {
		return nil, nil, err
	}
	return t, res.PFDs, nil
}

// detect traces detection and repairs of rules over t.
func (ls *layerStats) detect(tr *tracer, t *table.Table, rules []*pfd.PFD, op int) error {
	d := detect.New(t, detect.Options{})
	a0 := allocs()
	_, err := tr.around("detect.detect", -1, op, func() error {
		_, err := d.DetectAllContext(context.Background(), rules, 0)
		return err
	})
	ls.detectAllocs += allocs() - a0
	ls.detectRows += t.NumRows()
	if err != nil {
		return err
	}
	_, err = tr.around("detect.repairs", -1, op, func() error {
		_, err := d.RepairsAllContext(context.Background(), rules, 0)
		return err
	})
	return err
}

// shardBoot traces a K-shard bootstrap: the translator, each shard's
// node boot (concurrently, as shard.New runs them), and shard.New as a
// whole; the merge is what shard.New spends beyond the translator and
// the slowest node.
func (ls *layerStats) shardBoot(tr *tracer, t *table.Table, rules []*pfd.PFD, k, op int) error {
	var trans *shard.Translator
	ts, err := tr.around("shard.translator", -1, op, func() (err error) {
		trans, err = shard.NewTranslator(t, rules, k)
		return err
	})
	if err != nil {
		return err
	}
	boot := tr.begin("shard.boot", -1, op)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			_, errs[s] = tr.around("shard.node_boot", boot.s.ID, op, func() error {
				_, err := shard.NewLocalNode(trans.Boot(s), rules)
				return err
			})
		}(s)
	}
	wg.Wait()
	bs := boot.end()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var slowest time.Duration
	for _, s := range tr.children(bs.ID) {
		slowest = max(slowest, s.dur())
	}
	var c *shard.Coordinator
	whole, err := tr.around("shard.new", -1, op, func() (err error) {
		c, err = shard.New(t, rules, k)
		return err
	})
	if err != nil {
		return err
	}
	ls.translator += ts.dur()
	ls.nodeBoot += slowest
	ls.merge += max(0, whole.dur()-ts.dur()-slowest)
	return c.Close()
}

func (ls *layerStats) metrics(tr *tracer, m map[string]metric) {
	m["table.read_csv_ms"] = metric{totalMS(tr.named("table.read_csv")), "ms"}
	m["profile.profile_ms"] = metric{totalMS(tr.named("profile.profile")), "ms"}
	m["discovery.discover_ms"] = metric{totalMS(tr.named("discovery.discover")), "ms"}
	m["discovery.candidates"] = metric{float64(ls.candidates), "count"}
	m["detect.detect_ms"] = metric{totalMS(tr.named("detect.detect")), "ms"}
	m["detect.repairs_ms"] = metric{totalMS(tr.named("detect.repairs")), "ms"}
	m["detect.allocs_per_row"] = metric{ratio(float64(ls.detectAllocs), float64(ls.detectRows)), "count"}
	m["shard.translator_ms"] = metric{ms(ls.translator), "ms"}
	m["shard.node_boot_ms"] = metric{ms(ls.nodeBoot), "ms"}
	m["shard.merge_ms"] = metric{ms(ls.merge), "ms"}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceDiscoveryConfig is the discovery configuration a session of sys
// mines with: the system's base configuration with the session
// parameters laid over it.
func traceDiscoveryConfig(cfg core.SystemConfig) discovery.Config {
	d := cfg.Discovery
	d.MinCoverage = cfg.Params.MinCoverage
	d.MaxViolationRatio = cfg.Params.AllowedViolations
	d.Parallelism = cfg.Parallelism
	return d
}

// replayStats accumulates the traced delta and read replay.
type replayStats struct {
	applyUS, selfUS, journalUS []float64
	decodeUS, encodeUS         []float64
	serverSelfUS, readUS       []float64
	untracedUS, tracedUS       []float64
	checkpointMS               []float64
	applyAllocs                uint64
	batches, changes           int
}

// encodeDiff renders a diff the way the delta and ?since= handlers do.
func encodeDiff(id string, d *stream.Diff) ([]byte, error) {
	changes := make([]diffChange, 0, len(d.Added)+len(d.Removed))
	for _, v := range d.Added {
		changes = append(changes, diffChange{Kind: "added", Violation: v})
	}
	for _, v := range d.Removed {
		changes = append(changes, diffChange{Kind: "removed", Violation: v})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	err := enc.Encode(map[string]any{
		"session": id, "seq": d.Seq, "rows": d.Rows, "reset": d.Reset,
		"added": len(d.Added), "removed": len(d.Removed),
		"count": len(changes), "offset": 0, "returned": len(changes), "changes": changes,
	})
	return buf.Bytes(), err
}

// replayDelta replays one delta request: decode the body, apply through
// the session, encode the diff. Traced, each step is a span under a
// server.request span; untraced, only the whole request is timed.
func (rs *replayStats) replayDelta(tr *tracer, tp *timingPersister, sess *core.Session, body []byte, op int, traced bool) (*stream.Diff, error) {
	var b struct {
		Deltas stream.Batch `json:"deltas"`
	}
	if !traced {
		t0 := time.Now()
		tp.off = true
		defer func() { tp.off = false }()
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&b); err != nil {
			return nil, err
		}
		diff, err := sess.ApplyDeltasCtx(context.Background(), b.Deltas)
		if err != nil {
			return nil, err
		}
		if _, err := encodeDiff(sess.ID, diff); err != nil {
			return nil, err
		}
		rs.untracedUS = append(rs.untracedUS, us(time.Since(t0)))
		return diff, nil
	}
	t0 := time.Now()
	req := tr.begin("server.request", -1, op)
	dec, err := tr.around("server.decode", req.s.ID, op, func() error { return json.NewDecoder(bytes.NewReader(body)).Decode(&b) })
	if err != nil {
		return nil, err
	}
	ap := tr.begin("core.apply", req.s.ID, op)
	tp.parent, tp.op = ap.s.ID, op
	a0 := allocs()
	diff, err := sess.ApplyDeltasCtx(context.Background(), b.Deltas)
	a1 := allocs()
	tp.parent, tp.op = -1, -1
	if err != nil {
		return nil, err
	}
	aps := ap.end()
	enc, err := tr.around("server.encode", req.s.ID, op, func() error { _, err := encodeDiff(sess.ID, diff); return err })
	if err != nil {
		return nil, err
	}
	rq := req.end()
	rs.tracedUS = append(rs.tracedUS, us(time.Since(t0)))
	kids := tr.children(aps.ID)
	rs.applyUS = append(rs.applyUS, us(aps.dur()))
	rs.selfUS = append(rs.selfUS, us(tr.self(aps, kids)))
	for _, k := range kids {
		if k.Name == "persist.journal" {
			rs.journalUS = append(rs.journalUS, us(k.dur()))
		}
		if k.Name == "persist.checkpoint" {
			rs.checkpointMS = append(rs.checkpointMS, ms(k.dur()))
		}
	}
	rs.decodeUS = append(rs.decodeUS, us(dec.dur()))
	rs.encodeUS = append(rs.encodeUS, us(enc.dur()))
	rs.serverSelfUS = append(rs.serverSelfUS, us(rq.dur()-aps.dur()))
	rs.applyAllocs += a1 - a0
	rs.batches++
	rs.changes += len(diff.Added) + len(diff.Removed)
	return diff, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// p99 is the 99th percentile of a per-layer timing, or 0 with too few
// samples for ten to lie beyond it.
func p99(xs []float64) float64 {
	v, ok := percentile(xs, 990)
	if !ok {
		return 0
	}
	return v
}

func (rs *replayStats) metrics(m map[string]metric) {
	m["core.apply_us.p50"] = metric{summarize(rs.applyUS).Median, "us"}
	m["core.apply_us.p99"] = metric{p99(rs.applyUS), "us"}
	m["core.allocs_per_batch"] = metric{ratio(float64(rs.applyAllocs), float64(rs.batches)), "count"}
	m["stream.apply_self_us.p50"] = metric{summarize(rs.selfUS).Median, "us"}
	m["stream.apply_self_us.p99"] = metric{p99(rs.selfUS), "us"}
	m["stream.changes_per_batch"] = metric{ratio(float64(rs.changes), float64(rs.batches)), "count"}
	m["persist.journal_us.p50"] = metric{summarize(rs.journalUS).Median, "us"}
	m["persist.journal_us.p99"] = metric{p99(rs.journalUS), "us"}
	cp := summarize(rs.checkpointMS)
	mx := 0.0
	for _, x := range rs.checkpointMS {
		mx = max(mx, x)
	}
	m["persist.checkpoint_ms.p50"] = metric{cp.Median, "ms"}
	m["persist.checkpoint_ms.max"] = metric{mx, "ms"}
	m["server.decode_us.p50"] = metric{summarize(rs.decodeUS).Median, "us"}
	m["server.encode_us.p50"] = metric{summarize(rs.encodeUS).Median, "us"}
	m["server.self_us.p50"] = metric{summarize(rs.serverSelfUS).Median, "us"}
	m["server.read_us.p50"] = metric{summarize(rs.readUS).Median, "us"}
}

// persistCounters are the durability layer's counters from /metrics.
type persistCounters struct{ walBytes, batches, fsyncs, checkpoints, bpfSum, bpfCount float64 }

func readPersistCounters(srv *server.Server) (persistCounters, error) {
	s, err := scrapeMetrics(srv)
	if err != nil {
		return persistCounters{}, err
	}
	return persistCounters{
		walBytes:    obs.SumSamples(s, "anmat_persist_wal_bytes_total", nil),
		batches:     obs.SumSamples(s, "anmat_wal_group_commit_batches_total", nil),
		fsyncs:      obs.SumSamples(s, "anmat_wal_group_commit_fsyncs_total", nil),
		checkpoints: obs.SumSamples(s, "anmat_persist_checkpoints_total", nil),
		bpfSum:      obs.SumSamples(s, "anmat_wal_group_commit_batches_per_fsync_sum", nil),
		bpfCount:    obs.SumSamples(s, "anmat_wal_group_commit_batches_per_fsync_count", nil),
	}, nil
}

func (a persistCounters) metrics(b persistCounters, m map[string]metric) {
	n := b.batches - a.batches
	m["persist.wal_bytes_per_batch"] = metric{ratio(b.walBytes-a.walBytes, n), "B"}
	m["persist.fsyncs_per_batch"] = metric{ratio(b.fsyncs-a.fsyncs, n), "count"}
	m["persist.batches_per_fsync"] = metric{ratio(b.bpfSum-a.bpfSum, b.bpfCount-a.bpfCount), "count"}
	m["persist.checkpoints"] = metric{b.checkpoints - a.checkpoints, "count"}
}

// gcStats are the runtime's GC counters.
type gcStats struct {
	cycles uint32
	pause  uint64
}

func readGC() gcStats {
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return gcStats{s.NumGC, s.PauseTotalNs}
}

func (a gcStats) metrics(b gcStats, m map[string]metric) {
	m["runtime.gc_cycles"] = metric{float64(b.cycles - a.cycles), "count"}
	m["runtime.gc_pause_ms"] = metric{float64(b.pause-a.pause) / 1e6, "ms"}
}

// replayOps is how many operations a traced replay runs: the untraced
// run's open-loop sequence, lengthened until every other delta batch —
// the traced half — gives enough samples for a p99.
func replayOps(cfg config, sp serveSpec) int {
	n := sp.openOps(cfg.seconds)
	writeShare := sp.writeRate / (sp.writeRate + sp.readRate)
	if need := int(float64(2*cfg.size.minOpen)/writeShare) + 2; n < need {
		n = need
	}
	return n
}

// traceServe replays a served workload through the layers' entry points
// with spans around each call: the upload pipeline of every session, its
// engine bootstrap, then the untraced run's seeded operation sequence —
// delta batches through core.Session.ApplyDeltasCtx with a timing
// persister, ?since= follows through the engine — with every other
// delta left untraced to show the tracing overhead.
func traceServe(cfg config, sp serveSpec) (*result, error) {
	root, err := os.MkdirTemp(cfg.tmpRoot, sp.name+"-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	sessions, err := makeSessions(cfg, sp)
	if err != nil {
		return nil, err
	}
	t, c := newTally(), &checks{}
	pm, err := persist.Open(root, persist.Options{Fsync: true})
	if err != nil {
		return nil, err
	}
	defer pm.Close()
	sysCfg := sp.systemConfig()
	sys := core.NewSystemWith(docstore.NewMem(), sysCfg)
	srv := server.New(sys)
	tr := newTracer()
	tp := &timingPersister{Manager: pm, tr: tr, parent: -1, op: -1}
	var ls layerStats
	sess := make([]*core.Session, len(sessions))
	for i, s := range sessions {
		tbl, rules, err := ls.pipeline(tr, s.name, s.csv, traceDiscoveryConfig(sysCfg), -1)
		t.add("pipeline", err)
		if err != nil {
			return nil, err
		}
		if s.rule, err = parsePhoneRule(rules); err != nil {
			return nil, fmt.Errorf("session %s: planted dependency: %w", s.name, err)
		}
		s.rules = rules
		s.model = newPhoneModel(s.gen.Table, s.rule.blockKeyLen())
		if sp.shards > 1 {
			err := ls.shardBoot(tr, tbl, rules, sp.shards, -1)
			t.add("shard_boot", err)
			if err != nil {
				return nil, err
			}
		}
		se := sys.NewSessionWith(s.tenant, tbl, core.SessionConfig{Params: sys.Defaults(), Shards: sp.shards})
		se.Discovered = rules
		se.Confirm()
		se.SetPersist(tp)
		if err := se.Checkpoint(); err != nil {
			return nil, err
		}
		_, err = tr.around("core.stream_bootstrap", -1, -1, func() error { _, err := se.Stream(); return err })
		t.add("bootstrap", err)
		if err != nil {
			return nil, err
		}
		s.id, s.gen, s.csv = se.ID, nil, nil
		s.folded = map[string]pfd.Violation{}
		eng, _ := se.Stream()
		for _, v := range eng.Violations() {
			s.folded[vioKey(v)] = v
		}
		sess[i] = se
	}

	n := replayOps(cfg, sp)
	traffic := newTraffic(sp, sessions, cfg.seed)
	var rs replayStats
	pc0, err := readPersistCounters(srv)
	if err != nil {
		return nil, err
	}
	gc0 := readGC()
	r0 := time.Now()
	deltas := 0
	for i := 0; i < n; i++ {
		s := traffic.pick(i)
		se := sess[s.idx]
		switch traffic.opKind(i) {
		case "delta":
			body := deltaBody(s.model.next(s.rng))
			_, err := rs.replayDelta(tr, tp, se, body, i, deltas%2 == 0)
			deltas++
			t.add("delta", err)
			if err != nil {
				return nil, err
			}
		case "read_summary":
			_, err := tr.around("server.read", -1, i, func() error {
				st, _ := pm.Status(se.ID)
				_, err := json.Marshal(map[string]any{"session": se.ID, "rows": se.Table.NumRows(),
					"pfds": len(se.Discovered), "violations": len(se.Violations), "persistence": st})
				return err
			})
			t.add("read_summary", err)
		default:
			var d *stream.Diff
			sp, err := tr.around("server.read", -1, i, func() error {
				eng, err := se.Stream()
				if err != nil {
					return err
				}
				if d, err = eng.Since(s.cursor); err != nil {
					return err
				}
				_, err = encodeDiff(se.ID, d)
				return err
			})
			t.add("read_since", err)
			if err != nil {
				return nil, err
			}
			rs.readUS = append(rs.readUS, us(sp.dur()))
			s.folded, s.cursor = foldStream(s.folded, d), d.Seq
		}
	}
	replay := time.Since(r0)
	gc1 := readGC()
	pc1, err := readPersistCounters(srv)
	if err != nil {
		return nil, err
	}
	for i, s := range sessions {
		eng, err := sess[i].Stream()
		if err != nil {
			return nil, err
		}
		vs := eng.Violations()
		c.fail(checkOracle(s.model, s.rule, vs))
		if sp.readRate > 0 {
			d, err := eng.Since(s.cursor)
			if err != nil {
				return nil, err
			}
			c.fail(checkFold(foldStream(s.folded, d), vs))
		}
	}

	m := map[string]metric{}
	ls.metrics(tr, m)
	rs.metrics(m)
	pc0.metrics(pc1, m)
	gc0.metrics(gc1, m)
	printOverhead(&rs, n, replay)
	if err := tr.write(cfg.spanFile); err != nil {
		return nil, err
	}
	return finish(t, c, m), nil
}

// foldStream folds an engine diff into a client's violation set.
func foldStream(set map[string]pfd.Violation, d *stream.Diff) map[string]pfd.Violation {
	body := diffBody{Seq: d.Seq, Reset: d.Reset}
	for _, v := range d.Added {
		body.Changes = append(body.Changes, diffChange{Kind: "added", Violation: v})
	}
	for _, v := range d.Removed {
		body.Changes = append(body.Changes, diffChange{Kind: "removed", Violation: v})
	}
	out, _ := fold(set, body) // only known kinds: cannot fail
	return out
}

// printOverhead prints the traced replay's own totals beside the same
// requests replayed without spans.
func printOverhead(rs *replayStats, n int, replay time.Duration) {
	tr, un := summarize(rs.tracedUS), summarize(rs.untracedUS)
	fmt.Fprintf(os.Stderr, "traced replay: %d ops in %.2fs; delta request us traced %s, untraced %s; overhead at p50 %+.1f%%\n",
		n, replay.Seconds(), tr, un, 100*(tr.Median-un.Median)/un.Median)
}

// traceBulk traces the bulk workload's layers: the upload pipeline of
// every family, stored-rule detection on the large table and its K=2
// bootstrap, and result pages.
func traceBulk(cfg config) (*result, error) {
	inputs, stored, err := makeBulkInputs(cfg)
	if err != nil {
		return nil, err
	}
	t, c := newTally(), &checks{}
	sysCfg := core.DefaultSystemConfig()
	tr := newTracer()
	var ls layerStats
	gc0 := readGC()
	var phoneRules []*pfd.PFD
	var pages [][]pfd.Violation
	for i, in := range inputs {
		tbl, rules, err := ls.pipeline(tr, "bulk_"+in.fam.name, in.csv, traceDiscoveryConfig(sysCfg), i)
		t.add("pipeline", err)
		if err != nil {
			return nil, err
		}
		var ids []string
		for _, p := range rules {
			ids = append(ids, p.LHS+"->"+p.RHS)
		}
		c.fail(checkDiscovered(in.fam.name, ids, in.fam.planted))
		if i == 0 {
			phoneRules = rules
		}
		res, err := detect.New(tbl, detect.Options{}).DetectAllContext(context.Background(), rules, 0)
		if err != nil {
			return nil, err
		}
		pages = append(pages, res.Violations)
	}
	op := len(inputs)
	var big *table.Table
	if _, err := tr.around("table.read_csv", -1, op, func() (err error) {
		big, err = table.ReadCSV("bulk_stored", bytes.NewReader(stored.csv))
		return err
	}); err != nil {
		return nil, err
	}
	if err := ls.detect(tr, big, phoneRules, op); err != nil {
		return nil, err
	}
	t.add("stored_detect", nil)
	err = ls.shardBoot(tr, big, phoneRules, bulkShards, op)
	t.add("shard_boot", err)
	if err != nil {
		return nil, err
	}
	var rs replayStats
	for i := 0; i < 2*cfg.size.minOpen; i++ {
		vs := pages[i%len(pages)]
		off := 0
		if len(vs) > 0 {
			off = (i * 37) % len(vs)
		}
		page := vs[off:min(off+100, len(vs))]
		sp, err := tr.around("server.read", -1, op+1+i, func() error {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", " ")
			return enc.Encode(map[string]any{"count": len(vs), "offset": off, "returned": len(page), "violations": page})
		})
		t.add("read_page", err)
		rs.readUS = append(rs.readUS, us(sp.dur()))
	}
	gc1 := readGC()
	m := map[string]metric{}
	ls.metrics(tr, m)
	rs.metrics(m)
	persistCounters{}.metrics(persistCounters{}, m) // memory-only: persist does no work
	gc0.metrics(gc1, m)
	var rows int
	for _, in := range inputs {
		rows += in.ds.Table.NumRows()
	}
	pipe := totalMS(tr.named("table.read_csv")[:len(inputs)]) + m["profile.profile_ms"].Value + m["discovery.discover_ms"].Value
	fmt.Fprintf(os.Stderr, "traced totals: pipeline (parse+profile+discovery, detection apart) %.0f rows/s; stored-rule detect %.0f ms; bootstrap %.0f ms\n",
		float64(rows)/(pipe/1000), totalMS(tr.named("detect.detect")[len(inputs):]), totalMS(tr.named("shard.new")))
	if err := tr.write(cfg.spanFile); err != nil {
		return nil, err
	}
	return finish(t, c, m), nil
}
