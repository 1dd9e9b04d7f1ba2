package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"github.com/anmat/anmat/internal/core"
	"github.com/anmat/anmat/internal/datagen"
	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/docstore"
	"github.com/anmat/anmat/internal/server"
	"github.com/anmat/anmat/internal/table"
)

// family is one datagen family the bulk workload uploads.
type family struct {
	name string
	gen  func(n int, errRate float64, seed int64) *datagen.Dataset
	// planted are the dependencies (lhs->rhs) the generator plants.
	planted []string
}

var families = []family{
	{"phone_state", datagen.PhoneState, []string{"phone->state"}},
	{"name_gender", datagen.NameGender, []string{"full_name->gender"}},
	{"zip", datagen.ZipCity, []string{"zip->city", "zip->state"}},
	{"employee", datagen.EmployeeID, []string{"emp_id->department", "emp_id->grade"}},
	{"addresses", datagen.Addresses, []string{"address->state"}},
}

// groundTruth are the recall and precision floors of flagged rows against
// injected errors, for every family and the stored-rule table.
var groundTruth = floors{recall: 0.8, precision: 0.9}

// Per second of a bulk run: upload rounds, stored-rule passes,
// closed-loop reads and restores; and the share of its seconds given to
// the open read loop.
const (
	bulkRounds    = 0.1
	bulkPasses    = 0.2
	bulkClosedOps = 300
	bulkRestores  = 0.25
	bulkOpenShare = 0.2
	bulkShards    = 2
	csvParses     = 3
)

// bulkInput is one generated table and its CSV.
type bulkInput struct {
	fam family
	ds  *datagen.Dataset
	csv []byte
}

// makeBulkInputs generates the same tables whatever the seed: the rules
// discovered on the phone_state upload decide the cost of the stored-rule
// detection, and their tableau varies enough between generated tables to
// move it by a quarter. The seed drives the browsing traffic.
func makeBulkInputs(cfg config) ([]bulkInput, bulkInput, error) {
	var out []bulkInput
	for i, f := range families {
		ds := f.gen(cfg.size.bulkRows, 0.01, int64(i))
		in, err := csvInput(f, ds)
		if err != nil {
			return nil, bulkInput{}, err
		}
		out = append(out, in)
	}
	stored, err := csvInput(families[0], datagen.PhoneState(cfg.size.bulkStoredRows, 0.01, 99))
	return out, stored, err
}

func csvInput(f family, ds *datagen.Dataset) (bulkInput, error) {
	var buf bytes.Buffer
	err := ds.Table.WriteCSV(&buf)
	return bulkInput{fam: f, ds: ds, csv: buf.Bytes()}, err
}

// bulkSession is one uploaded family.
type bulkSession struct {
	id, name   string
	violations int
}

func runBulk(cfg config) (*result, error) {
	if cfg.trace {
		return traceBulk(cfg)
	}
	inputs, stored, err := makeBulkInputs(cfg)
	if err != nil {
		return nil, err
	}
	t, c := newTally(), &checks{}

	// Set-up: parse the stored-rule table's CSV.
	var parses []cost
	var big *table.Table
	for i := 0; i < csvParses; i++ {
		m := startMeter(true)
		big, err = table.ReadCSV("bulk_stored", bytes.NewReader(stored.csv))
		parses = append(parses, m.stop())
		if err != nil {
			return nil, err
		}
	}
	env, err := startServe("", serveSpec{})
	if err != nil {
		return nil, err
	}
	defer env.stop()
	heap := heapMB()

	var pipe []float64
	var pipeWall []float64
	var last []bulkSession
	var round int
	for ; round < count(cfg, bulkRounds, 1); round++ {
		for _, s := range last {
			_, err := env.api.call("DELETE", "/api/v1/sessions/"+s.id, "", nil)
			t.add("delete", err)
		}
		sessions, rows, up, err := uploadFamilies(env, inputs, round, t, c)
		if err != nil {
			return nil, err
		}
		last = sessions
		pipe = append(pipe, float64(rows)/up.cpu.Seconds())
		pipeWall = append(pipeWall, float64(rows)/up.wall.Seconds())
	}
	det, boot, err := storedRules(env.sys, big, stored, fmt.Sprintf("bulk_phone_state_r%d", round-1),
		count(cfg, bulkPasses, 3), t, c)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bulk: CSV parse wall s %.3f, CPU s %.3f; pipeline rows/s wall %.0f, CPU %.0f; stored-rule detect wall s %.3f, CPU s %.3f; bootstrap wall s %.3f, CPU s %.3f\n",
		wallSeconds(parses), cpuSeconds(parses), pipeWall, pipe, wallSeconds(det), cpuSeconds(det), wallSeconds(boot), cpuSeconds(boot))

	open, openCost, closed, closedDur, err := bulkReads(cfg, env, last, t, c)
	if err != nil {
		return nil, err
	}
	reportTraffic(open, closed, closedDur)
	fmt.Fprintf(os.Stderr, "  open   CPU ms per request %.4g\n", ms(openCost.cpu)/float64(len(open)))

	restore, stateMB, err := backupRestore(env, last, count(cfg, bulkRestores, 3), t, c)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "restores: wall s %.3f, CPU s %.3f\n", wallSeconds(restore), cpuSeconds(restore))
	rows := float64(big.NumRows())
	m := map[string]metric{
		"setup_s":                  {mid(cpuSeconds(parses)), "s"},
		"live_heap_mb":             {heap, "MB"},
		"request_cpu_ms":           {ms(openCost.cpu) / float64(len(open)), "ms"},
		"pipeline_rows_per_cpu_s":  {mid(pipe), "rows/cpu_s"},
		"detect_rows_per_cpu_s":    {mid(perCPUSecond(rows, det)), "rows/cpu_s"},
		"bootstrap_rows_per_cpu_s": {mid(perCPUSecond(rows, boot)), "rows/cpu_s"},
		"restore_cpu_s":            {mid(cpuSeconds(restore)), "s"},
		"state_mb":                 {stateMB, "MB"},
	}
	return finish(t, c, m), nil
}

// uploadFamilies uploads every family through POST /api/v1/sessions (the
// whole pipeline: profile, discovery, detection, repairs) one after the
// other, and checks each against its generator's ground truth. It returns
// the rows uploaded and the summed cost of the uploads.
func uploadFamilies(env *serveEnv, inputs []bulkInput, round int, t *tally, c *checks) ([]bulkSession, int, cost, error) {
	var out []bulkSession
	rows, total := 0, cost{}
	for _, in := range inputs {
		name := fmt.Sprintf("bulk_%s_r%d", in.fam.name, round)
		var r struct {
			Session    string `json:"session"`
			Rows       int    `json:"rows"`
			Violations int    `json:"violations"`
		}
		m := startMeter(false)
		_, err := env.api.callJSON("POST", "/api/v1/sessions?name="+name, "", in.csv, &r)
		up := m.stop()
		total.wall += up.wall
		total.cpu += up.cpu
		t.add("upload", err)
		if err != nil {
			return nil, 0, cost{}, err
		}
		rows += r.Rows
		if r.Rows != in.ds.Table.NumRows() {
			c.fail(fmt.Errorf("upload %s: %d rows, want %d", name, r.Rows, in.ds.Table.NumRows()))
		}
		var p struct {
			PFDs []struct {
				Table string `json:"table"`
				LHS   string `json:"lhs"`
				RHS   string `json:"rhs"`
			} `json:"pfds"`
		}
		_, err = env.api.callJSON("GET", "/api/v1/sessions/"+r.Session+"/pfds", "", nil, &p)
		t.add("read_pfds", err)
		if err != nil {
			return nil, 0, cost{}, err
		}
		var ids []string
		for _, x := range p.PFDs {
			ids = append(ids, x.LHS+"->"+x.RHS)
		}
		c.fail(checkDiscovered(name, ids, in.fam.planted))
		var rep struct {
			Repairs []detect.Repair `json:"repairs"`
		}
		_, err = env.api.callJSON("GET", "/api/v1/sessions/"+r.Session+"/repairs", "", nil, &rep)
		t.add("read_repairs", err)
		if err != nil {
			return nil, 0, cost{}, err
		}
		c.fail(checkGroundTruth(name, rep.Repairs, in.ds.InjectedRows(), groundTruth))
		out = append(out, bulkSession{id: r.Session, name: name, violations: r.Violations})
	}
	return out, rows, total, nil
}

// storedRules applies the rules discovered on the last phone_state
// upload to fresh copies of the large table (System.LoadPFDs +
// Session.UseRules, detection and repairs), then bootstraps each copy's
// K=2 engine, pass after pass. It returns each pass's detection and
// bootstrap cost.
func storedRules(sys *core.System, big *table.Table, in bulkInput, ruleTable string, passes int, t *tally, c *checks) ([]cost, []cost, error) {
	rules, err := sys.LoadPFDs(ruleTable)
	if err == nil && len(rules) == 0 {
		err = fmt.Errorf("no stored rules for %s", ruleTable)
	}
	t.add("load_rules", err)
	if err != nil {
		return nil, nil, err
	}
	var det, boot []cost
	for pass := 0; pass < passes; pass++ {
		sess := sys.NewSessionWith("bulk", big.Clone(), core.SessionConfig{Params: sys.Defaults(), Shards: bulkShards})
		sess.UseRules(rules)
		m := startMeter(true)
		err := sess.RunStages(context.Background(), core.StageDetection, core.StageRepairs)
		det = append(det, m.stop())
		t.add("stored_detect", err)
		if err != nil {
			return nil, nil, err
		}
		m = startMeter(true)
		eng, err := sess.Stream()
		boot = append(boot, m.stop())
		t.add("bootstrap", err)
		if err != nil {
			return nil, nil, err
		}
		if pass == 0 {
			c.fail(checkGroundTruth("stored-rule detection", sess.Repairs, in.ds.InjectedRows(), groundTruth))
			c.fail(checkSame(fmt.Sprintf("K=%d bootstrap vs stored-rule detection", bulkShards), eng.Violations(), sess.Violations))
		}
	}
	return det, boot, nil
}

// bulkReads browses the uploaded sessions' results: violation pages,
// detection summaries and rule lists, first open-loop at a fixed rate,
// then closed-loop. It returns the open loop's records and cost, and the
// closed loop's records and duration.
func bulkReads(cfg config, env *serveEnv, sessions []bulkSession, t *tally, c *checks) ([]opRecord, cost, []opRecord, time.Duration, error) {
	n := int(cfg.size.bulkReads * cfg.seconds * bulkOpenShare)
	if n < cfg.size.minOpen {
		return nil, cost{}, nil, 0, fmt.Errorf("%d open-loop reads per run, want at least %d", n, cfg.size.minOpen)
	}
	const queues = 8
	rng := rand.New(rand.NewSource(cfg.seed))
	var mu sync.Mutex // the closed loop's two clients share rng
	read := func(i int) trafficOp {
		mu.Lock()
		s := sessions[rng.Intn(len(sessions))]
		kind, offset := rng.Intn(3), 0
		if s.violations > 0 {
			offset = rng.Intn(s.violations)
		}
		mu.Unlock()
		op := trafficOp{queue: i % queues}
		switch kind {
		case 0:
			op.kind = "read_page"
			op.do = func() error {
				var p struct {
					Count int `json:"count"`
				}
				_, err := env.api.callJSON("GET", fmt.Sprintf("/api/v1/sessions/%s/violations?limit=100&offset=%d", s.id, offset), "", nil, &p)
				if err == nil && p.Count != s.violations {
					c.fail(fmt.Errorf("%s: page says %d violations, upload said %d", s.name, p.Count, s.violations))
				}
				return err
			}
		case 1:
			op.kind = "read_detection"
			op.do = func() error {
				var d struct {
					Violations int `json:"violations"`
				}
				_, err := env.api.callJSON("GET", "/api/v1/sessions/"+s.id+"/detection", "", nil, &d)
				if err == nil && d.Violations != s.violations {
					c.fail(fmt.Errorf("%s: detection says %d violations, upload said %d", s.name, d.Violations, s.violations))
				}
				return err
			}
		default:
			op.kind = "read_pfds"
			op.do = func() error {
				_, err := env.api.call("GET", "/api/v1/sessions/"+s.id+"/pfds", "", nil)
				return err
			}
		}
		return op
	}
	m := startMeter(false)
	open := openLoop(cfg.size.bulkReads, n, queues, read)
	openCost := m.stop()
	t.addRecords(open)
	counts := make([]int, closedClients)
	closed, closedDur := closedLoop(closedClients, count(cfg, bulkClosedOps, closedClients)/closedClients,
		func(client int) (string, error) {
			op := read(counts[client]*closedClients + client)
			counts[client]++
			return op.kind, op.do()
		})
	t.addRecords(closed)
	return open, openCost, closed, closedDur, nil
}

// backupRestore downloads every uploaded session's backup and restores
// all of them into a fresh memory-only server n times; it returns the
// cost of each restore and the backups' size in MB.
func backupRestore(env *serveEnv, sessions []bulkSession, n int, t *tally, c *checks) ([]cost, float64, error) {
	tars := make([][]byte, len(sessions))
	listings := make([][]byte, len(sessions))
	size := 0
	for i, s := range sessions {
		var err error
		tars[i], err = env.api.call("GET", "/api/v1/sessions/"+s.id+"/backup", "", nil)
		t.add("backup", err)
		if err != nil {
			return nil, 0, err
		}
		size += len(tars[i])
		listings[i], err = env.api.call("GET", "/api/v1/sessions/"+s.id+"/violations", "", nil)
		t.add("read_listing", err)
		if err != nil {
			return nil, 0, err
		}
	}
	var times []cost
	for rep := 0; rep < n; rep++ {
		m := startMeter(true)
		srv := server.New(core.NewSystemWith(docstore.NewMem(), core.DefaultSystemConfig()))
		h := srv.Handler()
		for i := range sessions {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/sessions/restore", bytes.NewReader(tars[i])))
			var err error
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("restore %s: %d: %.200s", sessions[i].id, rec.Code, rec.Body.Bytes())
			}
			t.add("restore", err)
			if err != nil {
				return nil, 0, err
			}
		}
		times = append(times, m.stop())
		for i, s := range sessions {
			got, err := handlerGet(h, "/api/v1/sessions/"+s.id+"/violations")
			if err != nil {
				return nil, 0, err
			}
			c.fail(checkRestored(s.id, sessionState{listing: listings[i]}, sessionState{listing: got}))
		}
	}
	return times, float64(size) / (1 << 20), nil
}
