package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"

	"github.com/anmat/anmat/internal/pfd"
	"github.com/anmat/anmat/internal/stream"
	"github.com/anmat/anmat/internal/table"
)

// phoneRow is one row of a served phone/state table.
type phoneRow struct{ phone, state string }

// phoneModel is the benchmark's own copy of one served phone/state
// table. Rows are kept in table order, so a delete renumbers the
// survivors exactly as the served table does. Every block of the
// discovered variable rule (the rows sharing the first keyLen digits)
// has a home state: its majority in the generated table. The op
// generator never lets a block lose that majority, so the block-majority
// oracle has a single right answer at every point of the run.
type phoneModel struct {
	rows   []phoneRow
	keyLen int
	home   map[string]string
	counts map[string]map[string]int
	size   map[string]int
	// frozen blocks had no strict majority in the generated table (a tie
	// in a two-row block, say); the generator leaves them untouched.
	frozen map[string]bool
	// states are the home states; wrong values are drawn from them, so a
	// deviating row always has some block it would be clean in.
	states  []string
	homeOf  map[string][]string // state → the blocks it is home in
	minRows int
}

// newPhoneModel copies a generated table and fixes each block's home
// state: its most frequent state, ties going to the smaller string — the
// rule the variable-row conflict report uses to pick its witness group.
func newPhoneModel(t *table.Table, keyLen int) *phoneModel {
	m := &phoneModel{
		rows:    make([]phoneRow, t.NumRows()),
		keyLen:  keyLen,
		home:    map[string]string{},
		counts:  map[string]map[string]int{},
		size:    map[string]int{},
		frozen:  map[string]bool{},
		homeOf:  map[string][]string{},
		minRows: t.NumRows() / 2,
	}
	for i := range m.rows {
		m.rows[i] = phoneRow{t.Cell(i, 0), t.Cell(i, 1)}
		m.count(m.rows[i], 1)
	}
	for k, c := range m.counts {
		best, n := "", -1
		for s, x := range c {
			if x > n || (x == n && s < best) {
				best, n = s, x
			}
		}
		m.home[k] = best
		m.frozen[k] = n*2 <= m.size[k]
		if !m.frozen[k] {
			m.homeOf[best] = append(m.homeOf[best], k)
		}
	}
	for s, ks := range m.homeOf {
		sort.Strings(ks)
		m.states = append(m.states, s)
	}
	sort.Strings(m.states)
	return m
}

func (m *phoneModel) key(phone string) string { return phone[:m.keyLen] }

func (m *phoneModel) count(r phoneRow, d int) {
	k := m.key(r.phone)
	c := m.counts[k]
	if c == nil {
		c = map[string]int{}
		m.counts[k] = c
	}
	c[r.state] += d
	m.size[k] += d
}

// keepsMajority reports whether block k still has its home state as a
// strict majority after adding dHome home rows and dOther other rows.
func (m *phoneModel) keepsMajority(k string, dHome, dOther int) bool {
	if m.frozen[k] {
		return false
	}
	h := m.counts[k][m.home[k]] + dHome
	n := m.size[k] + dHome + dOther
	return n == 0 || 2*h > n
}

func (m *phoneModel) delta(k, state string) (int, int) {
	if state == m.home[k] {
		return 1, 0
	}
	return 0, 1
}

// newPhone makes a ten-digit phone in block k.
func newPhone(k string, rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString(k)
	for b.Len() < 10 {
		b.WriteByte(byte('0' + rng.Intn(10)))
	}
	return b.String()
}

// wrongState picks a home state other than s, or s itself when s is the
// only one.
func (m *phoneModel) wrongState(s string, rng *rand.Rand) string {
	for try := 0; try < opTries; try++ {
		if w := m.states[rng.Intn(len(m.states))]; w != s {
			return w
		}
	}
	return s
}

// Op mix, as cumulative probabilities of one delta batch. Repairs and
// corruptions are equally likely, and appended rows are as dirty as the
// generated table, so the share of deviating rows — and with it the
// violation count and the cost of a batch — stays level through a run.
const (
	pAppend100   = 0.02 // one 100-row append
	pAppend1     = 0.45 // single-row appends
	pDelete      = 0.50 // single-row deletes
	pStateUpdate = 0.78 // state updates; the rest are key-moving phone updates
	pWrongAppend = 0.01 // share of appended rows given a wrong state
	opTries      = 8    // random rows tried before an op falls back to an append
	// dirtyTries bounds the search for a deviating row, about one in a
	// hundred.
	dirtyTries = 1000
)

// next generates one delta batch and applies it to the model. Ops that
// would cost a block its majority are retried on other rows, and fall
// back to a single-row append, which is always possible.
func (m *phoneModel) next(rng *rand.Rand) stream.Batch {
	r := rng.Float64()
	var op stream.Op
	ok := false
	switch {
	case r < pAppend100:
		op, ok = m.appendRows(100, rng), true
	case r < pAppend1:
	case r < pDelete:
		op, ok = m.deleteRow(rng)
	case r < pStateUpdate:
		op, ok = m.updateState(rng)
	default:
		op, ok = m.movePhone(rng)
	}
	if !ok {
		op = m.appendRows(1, rng)
	}
	return stream.Batch{op}
}

func (m *phoneModel) appendRows(n int, rng *rand.Rand) stream.Op {
	out := make([][]string, 0, n)
	for len(out) < n {
		k := m.key(m.rows[rng.Intn(len(m.rows))].phone)
		if m.frozen[k] {
			continue
		}
		row := phoneRow{newPhone(k, rng), m.home[k]}
		if rng.Float64() < pWrongAppend {
			if w := m.wrongState(row.state, rng); m.keepsMajority(k, 0, 1) {
				row.state = w
			}
		}
		m.rows = append(m.rows, row)
		m.count(row, 1)
		out = append(out, []string{row.phone, row.state})
	}
	return stream.AppendRows(out...)
}

func (m *phoneModel) deleteRow(rng *rand.Rand) (stream.Op, bool) {
	if len(m.rows) <= m.minRows {
		return stream.Op{}, false
	}
	for try := 0; try < opTries; try++ {
		i := rng.Intn(len(m.rows))
		row := m.rows[i]
		k := m.key(row.phone)
		dh, do := m.delta(k, row.state)
		if !m.keepsMajority(k, -dh, -do) {
			continue
		}
		m.count(row, -1)
		m.rows = append(m.rows[:i], m.rows[i+1:]...)
		return stream.DeleteRows(i), true
	}
	return stream.Op{}, false
}

// pickRow returns a random row that deviates from its block's home state
// (dirty) or does not, and false when none turned up.
func (m *phoneModel) pickRow(rng *rand.Rand, dirty bool) (int, bool) {
	tries := opTries
	if dirty {
		tries = dirtyTries
	}
	for try := 0; try < tries; try++ {
		i := rng.Intn(len(m.rows))
		k := m.key(m.rows[i].phone)
		if !m.frozen[k] && (m.rows[i].state != m.home[k]) == dirty {
			return i, true
		}
	}
	return 0, false
}

// updateState repairs a deviating row or dirties a clean one, with equal
// odds.
func (m *phoneModel) updateState(rng *rand.Rand) (stream.Op, bool) {
	repair := rng.Intn(2) == 0
	for try := 0; try < opTries; try++ {
		i, ok := m.pickRow(rng, repair)
		if !ok {
			return stream.Op{}, false
		}
		row := m.rows[i]
		k := m.key(row.phone)
		next := m.home[k]
		if !repair {
			next = m.wrongState(row.state, rng)
		}
		oh, oo := m.delta(k, row.state)
		nh, no := m.delta(k, next)
		if !m.keepsMajority(k, nh-oh, no-oo) {
			continue
		}
		m.count(row, -1)
		m.rows[i].state = next
		m.count(m.rows[i], 1)
		return stream.UpdateCell(i, "state", next), true
	}
	return stream.Op{}, false
}

// movePhone rewrites a row's phone into another block, keeping its state:
// with equal odds a deviating row moves to a block whose home state it
// has (its phone was the wrong cell), or a clean row moves to another
// block.
func (m *phoneModel) movePhone(rng *rand.Rand) (stream.Op, bool) {
	repair := rng.Intn(2) == 0
	for try := 0; try < opTries; try++ {
		i, ok := m.pickRow(rng, repair)
		if !ok {
			return stream.Op{}, false
		}
		row := m.rows[i]
		from := m.key(row.phone)
		to := m.key(m.rows[rng.Intn(len(m.rows))].phone)
		if repair {
			ks := m.homeOf[row.state]
			if len(ks) == 0 {
				continue
			}
			to = ks[rng.Intn(len(ks))]
		}
		if from == to {
			continue
		}
		fh, fo := m.delta(from, row.state)
		th, to2 := m.delta(to, row.state)
		if !m.keepsMajority(from, -fh, -fo) || !m.keepsMajority(to, th, to2) {
			continue
		}
		m.count(row, -1)
		m.rows[i].phone = newPhone(to, rng)
		m.count(m.rows[i], 1)
		return stream.UpdateCell(i, "phone", m.rows[i].phone), true
	}
	return stream.Op{}, false
}

// table rebuilds the model as a table, for detection apart from the
// served engine.
func (m *phoneModel) table(name string) (*table.Table, error) {
	rows := make([][]string, len(m.rows))
	for i, r := range m.rows {
		rows[i] = []string{r.phone, r.state}
	}
	return table.FromRows(name, []string{"phone", "state"}, rows)
}

// constRow is one constant tableau row of the phone → state rule.
type constRow struct {
	text   string
	prefix string // set when the pattern is <digits>\D{n}: a plain prefix test
	length int
	re     *regexp.Regexp
	rhs    string
}

func (c constRow) matches(phone string) bool {
	if c.re == nil {
		return len(phone) == c.length && strings.HasPrefix(phone, c.prefix)
	}
	return c.re.MatchString(phone)
}

// phoneRule is the discovered phone → state dependency in the shape the
// oracle evaluates: at most one variable row keyed on a digit prefix,
// plus any number of constant rows.
type phoneRule struct {
	id     string
	varRow string // "" when discovery kept no variable row
	keyLen int
	consts []constRow
}

// areaCodeLen keys the model's blocks when the rule has no variable row.
const areaCodeLen = 3

// blockKeyLen is the prefix length the model keys its blocks on.
func (r phoneRule) blockKeyLen() int {
	if r.varRow == "" {
		return areaCodeLen
	}
	return r.keyLen
}

var (
	prefixVarRow   = regexp.MustCompile(`^<\\D\{(\d+)\}>\\D\{(\d+)\}$`)
	prefixConstRow = regexp.MustCompile(`^<(\d+)>\\D\{(\d+)\}$`)
)

// parsePhoneRule checks that discovery found exactly the planted
// phone → state dependency, with at most one variable row and that one
// keyed on a digit prefix, and compiles its constant rows into matchers
// of the benchmark's own.
func parsePhoneRule(rules []*pfd.PFD) (phoneRule, error) {
	if len(rules) != 1 || rules[0].LHS != "phone" || rules[0].RHS != "state" {
		ids := make([]string, len(rules))
		for i, p := range rules {
			ids[i] = p.ID()
		}
		return phoneRule{}, fmt.Errorf("want one phone->state rule, discovered %v", ids)
	}
	p := rules[0]
	out := phoneRule{id: p.ID()}
	for _, row := range p.Tableau.Rows() {
		text := row.String()
		lhs := row.LHS.String()
		if row.Variable() {
			m := prefixVarRow.FindStringSubmatch(lhs)
			if m == nil || out.varRow != "" {
				return phoneRule{}, fmt.Errorf("rule %s: unexpected variable row %q", out.id, text)
			}
			out.varRow = text
			fmt.Sscan(m[1], &out.keyLen)
			continue
		}
		c := constRow{text: text, rhs: row.RHS}
		if m := prefixConstRow.FindStringSubmatch(lhs); m != nil {
			var n int
			fmt.Sscan(m[2], &n)
			c.prefix, c.length = m[1], len(m[1])+n
		} else {
			re, err := patternRegexp(lhs)
			if err != nil {
				return phoneRule{}, fmt.Errorf("rule %s: row %q: %v", out.id, text, err)
			}
			c.re = re
		}
		out.consts = append(out.consts, c)
	}
	return out, nil
}

// patternRegexp translates a constrained pattern of the ANMAT pattern
// language into an anchored regular expression: classes \D \LU \LL \S \A,
// escaped or plain literals, quantifiers {n} + *, and the <…> markers of
// the constrained part, which match like their contents.
func patternRegexp(p string) (*regexp.Regexp, error) {
	var b strings.Builder
	b.WriteByte('^')
	for i := 0; i < len(p); {
		switch c := p[i]; {
		case c == '<' || c == '>':
			i++
		case c == '{' || c == '*' || c == '+':
			j := i + 1
			if c == '{' {
				j = strings.IndexByte(p[i:], '}') + i + 1
				if j <= i {
					return nil, fmt.Errorf("unterminated quantifier in %q", p)
				}
			}
			b.WriteString(p[i:j])
			i = j
		case c == '\\':
			switch {
			case strings.HasPrefix(p[i:], `\LU`):
				b.WriteString(`[A-Z]`)
				i += 3
			case strings.HasPrefix(p[i:], `\LL`):
				b.WriteString(`[a-z]`)
				i += 3
			case strings.HasPrefix(p[i:], `\D`):
				b.WriteString(`[0-9]`)
				i += 2
			case strings.HasPrefix(p[i:], `\S`):
				b.WriteString(`[^A-Za-z0-9]`)
				i += 2
			case strings.HasPrefix(p[i:], `\A`):
				b.WriteString(`(?s:.)`)
				i += 2
			case i+1 < len(p):
				b.WriteString(regexp.QuoteMeta(p[i+1 : i+2]))
				i += 2
			default:
				return nil, fmt.Errorf("dangling escape in %q", p)
			}
		default:
			b.WriteString(regexp.QuoteMeta(p[i : i+1]))
			i++
		}
	}
	b.WriteByte('$')
	return regexp.Compile(b.String())
}

// vioFacts is what the oracle predicts of one violation.
type vioFacts struct {
	observed, expected string
	variable           bool
}

func vioIdent(pfdID, row string, tuples []int) string {
	return fmt.Sprintf("%s\x00%s\x00%v", pfdID, row, tuples)
}

// oracle predicts the violation set of the rule over the model table:
// each constant row flags every matching row whose state differs from
// the row's constant; the variable row pairs every row that deviates
// from its block's home state with the block's first home-state row.
func oracle(m *phoneModel, rule phoneRule) map[string]vioFacts {
	out := map[string]vioFacts{}
	rep := map[string]int{}
	for i, r := range m.rows {
		for _, c := range rule.consts {
			if r.state != c.rhs && c.matches(r.phone) {
				out[vioIdent(rule.id, c.text, []int{i})] = vioFacts{observed: r.state, expected: c.rhs}
			}
		}
		k := m.key(r.phone)
		if _, ok := rep[k]; !ok && r.state == m.home[k] {
			rep[k] = i
		}
	}
	for i, r := range m.rows {
		k := m.key(r.phone)
		if rule.varRow == "" || r.state == m.home[k] {
			continue
		}
		a, b := rep[k], i
		sa, sb := m.home[k], r.state
		if b < a {
			a, b, sa, sb = b, a, sb, sa
		}
		out[vioIdent(rule.id, rule.varRow, []int{a, b})] = vioFacts{observed: sb, expected: sa, variable: true}
	}
	return out
}
