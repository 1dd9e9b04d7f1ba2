package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/persist"
	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/server"
	"github.com/anmat/anmat/internal/table"
)

// serveSpec describes a served workload: its sessions and its traffic.
type serveSpec struct {
	name     string
	sessions int
	rows     int
	tenants  int
	shards   int
	// skew is the Zipf exponent of the area codes (0 = uniform).
	skew float64
	// limits turns admission control on, with limits no request reaches.
	limits bool
	// writeRate and readRate are the open-loop delta batches and reads
	// per second.
	writeRate, readRate float64
	// zipf picks the session of each operation Zipf-skewed, so a few hot
	// sessions reach the compaction threshold within a run.
	zipf bool
	// fixedTables generates the same tables whatever the seed, which then
	// drives the traffic only. With two sessions, the tableaux discovery
	// keeps vary enough between generated tables (20 to 60 constant rows)
	// to move the cost of detection by a quarter from seed to seed.
	fixedTables bool
	// setups is how many times the run sets its sessions up; the median
	// set-up is reported.
	setups int
	// openShare is the share of a run's seconds given to the open loop.
	openShare float64
	// closedOps and rounds are, per second of a run, the closed loop's
	// operations and the rounds of a stored-rule pass and a restore after
	// the traffic. Counts rather than durations give every run of a seed
	// the same operations and the same final state, however busy the
	// machine.
	closedOps, rounds float64
}

// count is perSecond operations for each of the run's seconds, and at
// least least.
func count(cfg config, perSecond float64, least int) int {
	return max(least, int(perSecond*cfg.seconds))
}

// closedClients is the closed loop's client count.
const closedClients = 2

func deltasSpec(s sizes) serveSpec {
	return serveSpec{name: "serve-deltas", sessions: 2, rows: s.deltaRows, tenants: 2, shards: 2,
		skew: 1.3, writeRate: s.deltaRate, fixedTables: true, setups: 3,
		openShare: 0.85, closedOps: 30, rounds: 0.35}
}

func tenantsSpec(s sizes) serveSpec {
	return serveSpec{name: "serve-tenants", sessions: s.tenantSessions, rows: s.tenantRows, tenants: 8, shards: 1,
		limits: true, writeRate: s.tenantWrites, readRate: s.tenantReads, zipf: true, fixedTables: true, setups: 1,
		openShare: 0.5, closedOps: 200, rounds: 0.2}
}

func runServeDeltas(cfg config) (*result, error) {
	if cfg.trace {
		return traceServe(cfg, deltasSpec(cfg.size))
	}
	return runServe(cfg, deltasSpec(cfg.size))
}

func runServeTenants(cfg config) (*result, error) {
	if cfg.trace {
		return traceServe(cfg, tenantsSpec(cfg.size))
	}
	return runServe(cfg, tenantsSpec(cfg.size))
}

func (sp serveSpec) systemConfig() core.SystemConfig {
	c := core.DefaultSystemConfig()
	c.Shards = sp.shards
	return c
}

func (sp serveSpec) admission() server.Limits {
	if !sp.limits {
		return server.Limits{}
	}
	// Far above anything the workload asks for: admission runs on every
	// request but never refuses one.
	return server.Limits{MaxSessions: 4 * sp.sessions, MaxRows: 1 << 40, DeltaRate: 1e6}
}

func (sp serveSpec) openOps(seconds float64) int {
	return int((sp.writeRate + sp.readRate) * seconds * sp.openShare)
}

// isRead spreads reads evenly through a traffic sequence at the spec's
// read share.
func (sp serveSpec) isRead(i int) bool {
	share := sp.readRate / (sp.writeRate + sp.readRate)
	return int(float64(i+1)*share) > int(float64(i)*share)
}

// servedSession is one served table and the benchmark's view of it.
type servedSession struct {
	idx              int
	id, name, tenant string
	gen              *datagen.Dataset
	csv              []byte
	// setup is the generated table, kept for the stored-rule passes.
	setup *table.Table
	// mu is held by a closed-loop client for a whole operation, so the
	// model and the served table see the same order of batches.
	mu     sync.Mutex
	model  *phoneModel
	rules  []*pfd.PFD
	rule   phoneRule
	rng    *rand.Rand
	seq    int64
	cursor int64
	folded map[string]pfd.Violation
}

func makeSessions(cfg config, sp serveSpec) ([]*servedSession, error) {
	out := make([]*servedSession, sp.sessions)
	tableSeed := cfg.seed
	if sp.fixedTables {
		tableSeed = 0
	}
	for i := range out {
		seed := cfg.seed*1_000_003 + int64(i)
		ds := datagen.PhoneStateSkewed(sp.rows, 0.01, tableSeed*1_000_003+int64(i), sp.skew)
		var buf bytes.Buffer
		if err := ds.Table.WriteCSV(&buf); err != nil {
			return nil, err
		}
		out[i] = &servedSession{
			idx:    i,
			name:   fmt.Sprintf("phones_%03d", i),
			tenant: fmt.Sprintf("tenant%d", i%sp.tenants),
			gen:    ds,
			csv:    buf.Bytes(),
			rng:    rand.New(rand.NewSource(seed ^ 0x5eed)),
		}
	}
	return out, nil
}

// apiClient talks to the server over loopback HTTP.
type apiClient struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newAPIClient(base string) *apiClient {
	tr := &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512, IdleConnTimeout: time.Minute, DisableCompression: true}
	return &apiClient{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

// call sends one request and returns the body of a 2xx response; any
// other status, or a transport error, fails the operation.
func (c *apiClient) call(method, path, tenant string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if tenant != "" {
		req.Header.Set(server.TenantHeader, tenant)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %.200s", method, path, resp.Status, data)
	}
	return data, nil
}

func (c *apiClient) callJSON(method, path, tenant string, body []byte, out any) ([]byte, error) {
	data, err := c.call(method, path, tenant, body)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return nil, fmt.Errorf("%s %s: decode: %w", method, path, err)
	}
	return data, nil
}

// serveEnv is one in-process server with its durability layer.
type serveEnv struct {
	sys    *core.System
	pm     *persist.Manager
	hs     *http.Server
	served chan error
	api    *apiClient
	stops  sync.Once
	stopEr error
}

// startServe opens the data directory with fsync on and serves the
// handler on a loopback listener, as `anmat-server -data dir -fsync
// -shards K` does; with dir "" the server is memory-only.
func startServe(dir string, sp serveSpec) (*serveEnv, error) {
	var pm *persist.Manager
	if dir != "" {
		var err error
		if pm, err = persist.Open(dir, persist.Options{Fsync: true}); err != nil {
			return nil, err
		}
	}
	sys := core.NewSystemWith(docstore.NewMem(), sp.systemConfig())
	sys.CreateProject("default")
	srv := server.New(sys)
	srv.SetLimits(sp.admission())
	if pm != nil {
		srv.AttachPersist(pm)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if pm != nil {
			pm.Close()
		}
		return nil, err
	}
	e := &serveEnv{sys: sys, pm: pm, served: make(chan error, 1), api: newAPIClient("http://" + ln.Addr().String())}
	e.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 30 * time.Second}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// stop shuts the listener down, waits for the serving goroutine, drops
// the client's idle connections and closes the durability layer.
func (e *serveEnv) stop() error {
	e.stops.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		err := e.hs.Shutdown(ctx)
		if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		e.api.tr.CloseIdleConnections()
		if e.pm != nil {
			if cerr := e.pm.Close(); err == nil {
				err = cerr
			}
		}
		e.stopEr = err
	})
	return e.stopEr
}

// parallel runs f over every session with two workers.
func parallel(sessions []*servedSession, f func(s *servedSession)) {
	next := make(chan *servedSession)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				f(s)
			}
		}()
	}
	for _, s := range sessions {
		next <- s
	}
	close(next)
	wg.Wait()
}

func (e *serveEnv) upload(s *servedSession) error {
	var r struct {
		Session string `json:"session"`
		Rows    int    `json:"rows"`
	}
	path := fmt.Sprintf("/api/v1/sessions?name=%s&project=%s", s.name, s.tenant)
	if _, err := e.api.callJSON("POST", path, s.tenant, s.csv, &r); err != nil {
		return err
	}
	if r.Rows != s.gen.Table.NumRows() {
		return fmt.Errorf("upload %s: %d rows, want %d", s.name, r.Rows, s.gen.Table.NumRows())
	}
	s.id = r.Session
	return nil
}

// bootstrap builds the session's incremental engine (and its first
// checkpoint) with the first ?since= read, so no timed batch pays it.
func (e *serveEnv) bootstrap(s *servedSession) error {
	var d diffBody
	if _, err := e.api.callJSON("GET", "/api/v1/sessions/"+s.id+"/violations?since=0", s.tenant, nil, &d); err != nil {
		return err
	}
	s.seq, s.cursor = d.Seq, d.Seq
	return nil
}

func (e *serveEnv) listing(s *servedSession) ([]byte, []pfd.Violation, error) {
	var l struct {
		Violations []pfd.Violation `json:"violations"`
	}
	data, err := e.api.callJSON("GET", "/api/v1/sessions/"+s.id+"/violations", s.tenant, nil, &l)
	return data, l.Violations, err
}

func (e *serveEnv) postDelta(s *servedSession, body []byte, c *checks) error {
	var r struct {
		Seq int64 `json:"seq"`
	}
	if _, err := e.api.callJSON("POST", "/api/v1/sessions/"+s.id+"/deltas", s.tenant, body, &r); err != nil {
		return err
	}
	if r.Seq != s.seq+1 {
		c.fail(fmt.Errorf("session %s: batch answered seq %d after seq %d", s.id, r.Seq, s.seq))
	}
	s.seq = r.Seq
	return nil
}

// readSince follows the session's violations from the client's cursor
// and folds the diff into the client's copy.
func (e *serveEnv) readSince(s *servedSession, c *checks) error {
	var d diffBody
	path := fmt.Sprintf("/api/v1/sessions/%s/violations?since=%d", s.id, s.cursor)
	if _, err := e.api.callJSON("GET", path, s.tenant, nil, &d); err != nil {
		return err
	}
	folded, err := fold(s.folded, d)
	if err != nil {
		c.fail(err)
		return nil
	}
	s.folded, s.cursor = folded, d.Seq
	return nil
}

func (e *serveEnv) readSummary(s *servedSession, wantRows int, c *checks) error {
	var r struct {
		Rows int `json:"rows"`
	}
	if _, err := e.api.callJSON("GET", "/api/v1/sessions/"+s.id, s.tenant, nil, &r); err != nil {
		return err
	}
	if r.Rows != wantRows {
		c.fail(fmt.Errorf("session %s: summary says %d rows, model has %d", s.id, r.Rows, wantRows))
	}
	return nil
}

func deltaBody(b any) []byte {
	body, _ := json.Marshal(map[string]any{"deltas": b}) // strings and ints only: cannot fail
	return body
}

// traffic is a served workload's operation generator: which session the
// next operation goes to, and what it is.
type traffic struct {
	sp       serveSpec
	sessions []*servedSession
	rng      *rand.Rand
	zipf     *rand.Zipf
}

func newTraffic(sp serveSpec, sessions []*servedSession, seed int64) *traffic {
	tr := &traffic{sp: sp, sessions: sessions, rng: rand.New(rand.NewSource(seed))}
	if sp.zipf && len(sessions) > 1 {
		tr.zipf = rand.NewZipf(tr.rng, 1.2, 1, uint64(len(sessions)-1))
	}
	return tr
}

func (tr *traffic) pick(i int) *servedSession {
	if tr.zipf != nil {
		return tr.sessions[tr.zipf.Uint64()]
	}
	return tr.sessions[i%len(tr.sessions)]
}

// opKind decides operation i of the sequence: a delta batch, a ?since=
// follow, or a session summary.
func (tr *traffic) opKind(i int) string {
	if !tr.sp.isRead(i) {
		return "delta"
	}
	if tr.rng.Intn(4) == 0 {
		return "read_summary"
	}
	return "read_since"
}

// build generates operation i against the model; it is executed later,
// in its session's order.
func (tr *traffic) build(e *serveEnv, c *checks, i int) trafficOp {
	return tr.op(e, c, tr.pick(i), tr.opKind(i))
}

func (tr *traffic) op(e *serveEnv, c *checks, s *servedSession, kind string) trafficOp {
	op := trafficOp{queue: s.idx, kind: kind}
	switch kind {
	case "delta":
		body := deltaBody(s.model.next(s.rng))
		op.do = func() error { return e.postDelta(s, body, c) }
	case "read_summary":
		rows := len(s.model.rows)
		op.do = func() error { return e.readSummary(s, rows, c) }
	default:
		op.do = func() error { return e.readSince(s, c) }
	}
	return op
}

func runServe(cfg config, sp serveSpec) (*result, error) {
	root, err := os.MkdirTemp(cfg.tmpRoot, sp.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	dataDir := filepath.Join(root, "data")
	openN := sp.openOps(cfg.seconds)
	if openN < cfg.size.minOpen {
		return nil, fmt.Errorf("%d open-loop operations per run, want at least %d", openN, cfg.size.minOpen)
	}
	sessions, err := makeSessions(cfg, sp)
	if err != nil {
		return nil, err
	}
	t, c := newTally(), &checks{}

	env, err := startServe(dataDir, sp)
	if err != nil {
		return nil, err
	}
	defer env.stop()
	// Every set-up uploads the same tables under new names; all but the
	// last are deleted again, with their persisted state.
	var setups, uploads []cost
	var heaps []float64
	for rep := 0; rep < sp.setups; rep++ {
		if rep > 0 {
			parallel(sessions, func(s *servedSession) {
				_, err := env.api.call("DELETE", "/api/v1/sessions/"+s.id, s.tenant, nil)
				t.add("delete", err)
			})
		}
		for _, s := range sessions {
			s.name = fmt.Sprintf("phones_%03d_r%d", s.idx, rep)
		}
		m := startMeter(false)
		parallel(sessions, func(s *servedSession) { t.add("upload", env.upload(s)) })
		uploads = append(uploads, m.stop())
		parallel(sessions, func(s *servedSession) { t.add("bootstrap", env.bootstrap(s)) })
		setups = append(setups, m.stop())
		if t.firstErr != nil {
			return nil, fmt.Errorf("setup: %w", t.firstErr)
		}
		heaps = append(heaps, heapMB())
	}
	rows := 0
	for _, s := range sessions {
		rows += s.gen.Table.NumRows()
		if s.rules, err = env.sys.LoadPFDs(s.name); err != nil {
			return nil, err
		}
		if s.rule, err = parsePhoneRule(s.rules); err != nil {
			return nil, fmt.Errorf("session %s: planted dependency: %w", s.name, err)
		}
		s.model = newPhoneModel(s.gen.Table, s.rule.blockKeyLen())
		s.setup, s.gen, s.csv = s.gen.Table, nil, nil
		_, vs, err := env.listing(s)
		t.add("read_listing", err)
		if err != nil {
			return nil, err
		}
		c.fail(checkOracle(s.model, s.rule, vs))
		if len(sessions) <= 4 {
			fmt.Fprintf(os.Stderr, "  session %s: %d rows, rule %q keyed on %d digits, %d constant rows, %d violations\n",
				s.id, len(s.model.rows), s.rule.varRow, s.rule.blockKeyLen(), len(s.rule.consts), len(vs))
		}
		s.folded = map[string]pfd.Violation{}
		for _, v := range vs {
			s.folded[vioKey(v)] = v
		}
	}
	fmt.Fprintf(os.Stderr, "setup: %d sessions, %d rows; set-ups wall s %.3f, CPU s %.3f; uploads wall s %.3f, CPU s %.3f; live heap MB %.1f\n",
		len(sessions), rows, wallSeconds(setups), cpuSeconds(setups), wallSeconds(uploads), cpuSeconds(uploads), heaps)

	tr := newTraffic(sp, sessions, cfg.seed)
	m := startMeter(false)
	open := openLoop(sp.writeRate+sp.readRate, openN, len(sessions), func(i int) trafficOp { return tr.build(env, c, i) })
	openCost := m.stop()
	t.addRecords(open)
	clients := make([]*traffic, closedClients)
	counts := make([]int, closedClients)
	for i := range clients {
		clients[i] = newTraffic(sp, sessions, cfg.seed+int64(i)+1)
	}
	closed, closedDur := closedLoop(closedClients, count(cfg, sp.closedOps, closedClients)/closedClients,
		func(client int) (string, error) {
			ct, n := clients[client], counts[client]
			counts[client]++
			s := sessions[client%len(sessions)]
			if ct.zipf != nil {
				s = ct.pick(n)
			}
			// The model and the served table must see this session's
			// batches in one order.
			s.mu.Lock()
			defer s.mu.Unlock()
			op := ct.op(env, c, s, ct.opKind(n))
			return op.kind, op.do()
		})
	t.addRecords(closed)
	reportTraffic(open, closed, closedDur)
	fmt.Fprintf(os.Stderr, "  open   CPU ms per request %.4g\n", ms(openCost.cpu)/float64(len(open)))
	for _, s := range sessions {
		if err := env.padJournal(s, c, t); err != nil {
			return nil, err
		}
	}

	// Final checks against computations made apart from the server.
	before := map[string]sessionState{}
	served := make([][]pfd.Violation, len(sessions))
	for i, s := range sessions {
		data, vs, err := env.listing(s)
		t.add("read_listing", err)
		if err != nil {
			return nil, err
		}
		served[i] = vs
		c.fail(checkOracle(s.model, s.rule, vs))
		if sp.readRate > 0 {
			err := env.readSince(s, c)
			t.add("read_since", err)
			c.fail(checkFold(s.folded, vs))
		}
		var d diffBody
		_, err = env.api.callJSON("GET", fmt.Sprintf("/api/v1/sessions/%s/violations?since=%d", s.id, s.seq), s.tenant, nil, &d)
		t.add("read_since", err)
		if err == nil && (d.Seq != s.seq || d.Reset || d.Count != 0) {
			c.fail(fmt.Errorf("session %s: ?since=%d answered seq %d reset %v with %d changes", s.id, s.seq, d.Seq, d.Reset, d.Count))
		}
		before[s.id] = sessionState{listing: data, seq: s.seq}
	}
	if err := env.stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	stateMB, err := dirMB(dataDir)
	if err != nil {
		return nil, err
	}

	// The stored rules over the final tables give the served violations.
	final := make([]*table.Table, len(sessions))
	for i, s := range sessions {
		if final[i], err = s.model.table(s.name); err != nil {
			return nil, err
		}
	}
	_, _, stored, engines, err := storedRulePass(env.sys, sessions, final, sp.shards, t)
	if err != nil {
		return nil, err
	}
	for i := range sessions {
		c.fail(checkSame("served violations vs DetectAllContext on the model table", served[i], stored[i].Violations))
		c.fail(checkSame("served violations vs a fresh engine bootstrap", served[i], engines[i].Violations()))
	}
	stored, engines, final = nil, nil, nil

	// Timed rounds: stored-rule passes over copies of the set-up tables,
	// the same for every run of a seed (for serve-deltas, of every seed),
	// take turns with restores of the final state, so both spread over
	// the same stretch of the run; the median of each is reported.
	var det, boot, restore []cost
	for round := 0; round < count(cfg, sp.rounds, minRounds); round++ {
		tables := make([]*table.Table, len(sessions))
		for i, s := range sessions {
			tables[i] = s.setup.Clone()
		}
		d, b, _, _, err := storedRulePass(env.sys, sessions, tables, sp.shards, t)
		if err != nil {
			return nil, err
		}
		r, err := restoreAndCheck(dataDir, sp, before, c, round == 0)
		t.add("restore", err)
		if err != nil {
			return nil, err
		}
		det, boot, restore = append(det, d), append(boot, b), append(restore, r)
	}
	fmt.Fprintf(os.Stderr, "after the traffic, %d rounds: detect wall s %.3f, CPU s %.3f; bootstrap wall s %.3f, CPU s %.3f; restore wall s %.3f, CPU s %.3f\n",
		len(restore), wallSeconds(det), cpuSeconds(det), wallSeconds(boot), cpuSeconds(boot), wallSeconds(restore), cpuSeconds(restore))

	metrics := map[string]metric{
		"setup_s":                  {mid(cpuSeconds(setups)), "s"},
		"live_heap_mb":             {mid(heaps), "MB"},
		"request_cpu_ms":           {ms(openCost.cpu) / float64(len(open)), "ms"},
		"pipeline_rows_per_cpu_s":  {mid(perCPUSecond(float64(rows), uploads)), "rows/cpu_s"},
		"detect_rows_per_cpu_s":    {mid(perCPUSecond(float64(rows), det)), "rows/cpu_s"},
		"bootstrap_rows_per_cpu_s": {mid(perCPUSecond(float64(rows), boot)), "rows/cpu_s"},
		"restore_cpu_s":            {mid(cpuSeconds(restore)), "s"},
		"state_mb":                 {stateMB, "MB"},
	}
	return finish(t, c, metrics), nil
}

// restoreTail is the number of journaled batches every session holds
// when the run restores its data directory, so each restore replays the
// same amount of WAL whatever the traffic left behind.
const restoreTail = 16

// padJournal sends untimed batches until the session's journal holds
// exactly restoreTail batches, going through a compaction first when it
// already holds more.
func (e *serveEnv) padJournal(s *servedSession, c *checks, t *tally) error {
	var sum struct {
		Persistence persist.Status `json:"persistence"`
	}
	if _, err := e.api.callJSON("GET", "/api/v1/sessions/"+s.id, s.tenant, nil, &sum); err != nil {
		return err
	}
	n := restoreTail - sum.Persistence.WALRecords
	if n < 0 {
		n += persist.DefaultCompactEvery
	}
	for i := 0; i < n; i++ {
		err := e.postDelta(s, deltaBody(s.model.next(s.rng)), c)
		t.add("delta_pad", err)
		if err != nil {
			return err
		}
	}
	return nil
}

// minRounds is the least number of timed rounds a served run makes.
const minRounds = 3

// storedRulePass runs the sessions' stored rules over the given tables,
// one per session — detection and repairs, then the K-shard engine
// bootstrap (System.LoadPFDs rules, Session.UseRules, Session.Stream) —
// and returns the cost of each step with the sessions and engines.
func storedRulePass(sys *core.System, sessions []*servedSession, tables []*table.Table, shards int, t *tally) (cost, cost, []*core.Session, []core.Streamer, error) {
	stored := make([]*core.Session, len(sessions))
	m := startMeter(true)
	for i, s := range sessions {
		se := sys.NewSessionWith(s.tenant, tables[i], core.SessionConfig{Params: sys.Defaults(), Shards: shards})
		se.UseRules(s.rules)
		err := se.RunStages(context.Background(), core.StageDetection, core.StageRepairs)
		t.add("stored_detect", err)
		if err != nil {
			return cost{}, cost{}, nil, nil, err
		}
		stored[i] = se
	}
	det := m.stop()
	engines := make([]core.Streamer, len(sessions))
	m = startMeter(true)
	for i, se := range stored {
		eng, err := se.Stream()
		t.add("bootstrap", err)
		if err != nil {
			return cost{}, cost{}, nil, nil, err
		}
		engines[i] = eng
	}
	return det, m.stop(), stored, engines, nil
}

func countOK(recs []opRecord) int {
	n := 0
	for _, r := range recs {
		if r.err == nil {
			n++
		}
	}
	return n
}

// reportTraffic prints the per-kind latency summaries and how late the
// open-loop generator ran.
func reportTraffic(open, closed []opRecord, closedDur time.Duration) {
	kinds := map[string]bool{}
	for _, r := range open {
		kinds[r.kind] = true
	}
	for k := range kinds {
		fmt.Fprintf(os.Stderr, "  open   %-13s latency ms %s\n", k, summarize(latencies(open, k)))
	}
	fmt.Fprintf(os.Stderr, "  open   generator lateness ms %s\n", summarize(lateness(open)))
	fmt.Fprintf(os.Stderr, "  closed %d ops in %.2fs (%.1f/s), latency ms %s\n",
		len(closed), closedDur.Seconds(), float64(countOK(closed))/closedDur.Seconds(), summarize(latencies(closed)))
}

// restoreAndCheck reopens the data directory into a fresh server and
// returns the cost; with check set it also compares every session with
// its state before the restore.
func restoreAndCheck(dir string, sp serveSpec, before map[string]sessionState, c *checks, check bool) (cost, error) {
	m := startMeter(true)
	pm, err := persist.Open(dir, persist.Options{Fsync: true})
	if err != nil {
		return cost{}, err
	}
	defer pm.Close()
	srv := server.New(core.NewSystemWith(docstore.NewMem(), sp.systemConfig()))
	srv.SetLimits(sp.admission())
	n, err := srv.RestoreSessions(pm)
	d := m.stop()
	if err != nil {
		return cost{}, err
	}
	if n != len(before) {
		c.fail(fmt.Errorf("restore: %d sessions, want %d", n, len(before)))
	}
	if !check {
		return d, nil
	}
	h := srv.Handler()
	for id, st := range before {
		listing, err := handlerGet(h, "/api/v1/sessions/"+id+"/violations")
		if err != nil {
			return cost{}, err
		}
		body, err := handlerGet(h, fmt.Sprintf("/api/v1/sessions/%s/violations?since=%d", id, st.seq))
		if err != nil {
			return cost{}, err
		}
		var diff diffBody
		if err := json.Unmarshal(body, &diff); err != nil {
			return cost{}, err
		}
		if diff.Reset || diff.Count != 0 {
			c.fail(fmt.Errorf("restore: session %s: ?since=%d answered reset %v with %d changes", id, st.seq, diff.Reset, diff.Count))
		}
		c.fail(checkRestored(id, st, sessionState{listing: listing, seq: diff.Seq}))
	}
	return d, nil
}

// handlerGet serves one GET through a handler without a listener.
func handlerGet(h http.Handler, path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d: %.200s", path, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}
