package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"

	"github.com/anmat/anmat/internal/detect"
	"github.com/anmat/anmat/internal/pfd"
)

// checks collects the failures of the output checks; any failure makes
// the run incorrect.
type checks struct {
	mu   sync.Mutex
	errs []error
}

func (c *checks) fail(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	c.errs = append(c.errs, err)
	c.mu.Unlock()
}

func (c *checks) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) == 0 {
		return nil
	}
	return fmt.Errorf("%d check(s) failed, first: %w", len(c.errs), c.errs[0])
}

// checkOracle compares served violations with the block-majority oracle
// over the benchmark's model of the table.
func checkOracle(m *phoneModel, rule phoneRule, served []pfd.Violation) error {
	want := oracle(m, rule)
	seen := make(map[string]bool, len(served))
	for _, v := range served {
		id := vioIdent(v.PFDID, v.Row, v.Tuples)
		f, ok := want[id]
		if !ok {
			return fmt.Errorf("oracle: unexpected violation %s %v on tuples %v", v.Row, v.PFDID, v.Tuples)
		}
		if seen[id] {
			return fmt.Errorf("oracle: duplicate violation %s on tuples %v", v.Row, v.Tuples)
		}
		seen[id] = true
		if got := (vioFacts{v.Observed, v.Expected, v.Variable}); got != f {
			return fmt.Errorf("oracle: violation %s on tuples %v reads %+v, want %+v", v.Row, v.Tuples, got, f)
		}
	}
	if len(seen) != len(want) {
		for id := range want {
			if !seen[id] {
				return fmt.Errorf("oracle: %d violation(s) missing, e.g. %q", len(want)-len(seen), id)
			}
		}
	}
	return nil
}

// checkSame compares two violation lists element by element, order
// included.
func checkSame(what string, got, want []pfd.Violation) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d violations, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(normalize(got[i]), normalize(want[i])) {
			return fmt.Errorf("%s: violation %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
	return nil
}

// normalize maps empty slices to nil, so a violation that went through
// JSON compares equal to one that did not.
func normalize(v pfd.Violation) pfd.Violation {
	if len(v.Cells) == 0 {
		v.Cells = nil
	}
	if len(v.Tuples) == 0 {
		v.Tuples = nil
	}
	return v
}

// vioKey identifies a violation the way a client folding diffs would:
// by rule, tableau row and cells.
func vioKey(v pfd.Violation) string {
	b, _ := json.Marshal([]any{v.PFDID, v.Row, v.Cells}) // plain strings and ints: cannot fail
	return string(b)
}

// diffChange and diffBody mirror the JSON of a violation diff.
type diffChange struct {
	Kind      string        `json:"kind"`
	Violation pfd.Violation `json:"violation"`
}

type diffBody struct {
	Seq     int64        `json:"seq"`
	Reset   bool         `json:"reset"`
	Count   int          `json:"count"`
	Changes []diffChange `json:"changes"`
}

// fold applies one ?since= diff to a client's copy of the violation set.
func fold(set map[string]pfd.Violation, d diffBody) (map[string]pfd.Violation, error) {
	if d.Reset {
		set = map[string]pfd.Violation{}
	}
	for _, c := range d.Changes {
		if c.Kind == "removed" {
			delete(set, vioKey(c.Violation))
		}
	}
	for _, c := range d.Changes {
		switch c.Kind {
		case "added":
			set[vioKey(c.Violation)] = c.Violation
		case "removed":
		default:
			return nil, fmt.Errorf("fold: unknown change kind %q", c.Kind)
		}
	}
	return set, nil
}

// checkFold compares a folded violation set with the served final set.
func checkFold(folded map[string]pfd.Violation, final []pfd.Violation) error {
	if len(folded) != len(final) {
		return fmt.Errorf("fold: %d violations after folding ?since= reads, want %d", len(folded), len(final))
	}
	for _, v := range final {
		got, ok := folded[vioKey(v)]
		if !ok {
			return fmt.Errorf("fold: violation %s on tuples %v missing after folding", v.Row, v.Tuples)
		}
		if !reflect.DeepEqual(normalize(got), normalize(v)) {
			return fmt.Errorf("fold: violation %s folded as %+v, want %+v", v.Row, got, v)
		}
	}
	return nil
}

// sessionState is what a restore must bring back of one session: its
// violation listing, byte for byte, and its sequence number.
type sessionState struct {
	listing []byte
	seq     int64
}

func checkRestored(id string, before, after sessionState) error {
	if after.seq != before.seq {
		return fmt.Errorf("restore: session %s at seq %d, want %d", id, after.seq, before.seq)
	}
	if !bytes.Equal(after.listing, before.listing) {
		return fmt.Errorf("restore: session %s violations differ from before the restore (%d vs %d bytes)", id, len(after.listing), len(before.listing))
	}
	return nil
}

// floors are the least recall and precision of flagged rows against the
// injected errors of a generated table.
type floors struct{ recall, precision float64 }

// checkGroundTruth scores the rows the repairs flag against the rows
// datagen dirtied.
func checkGroundTruth(what string, repairs []detect.Repair, injected map[int]bool, f floors) error {
	flagged := map[int]bool{}
	for _, r := range repairs {
		flagged[r.Cell.Row] = true
	}
	hit := 0
	for r := range flagged {
		if injected[r] {
			hit++
		}
	}
	if len(injected) == 0 || len(flagged) == 0 {
		return fmt.Errorf("%s: %d injected and %d flagged rows", what, len(injected), len(flagged))
	}
	recall := float64(hit) / float64(len(injected))
	precision := float64(hit) / float64(len(flagged))
	if recall < f.recall || precision < f.precision {
		return fmt.Errorf("%s: recall %.3f precision %.3f, floors %.2f/%.2f", what, recall, precision, f.recall, f.precision)
	}
	return nil
}

// checkDiscovered checks that every planted dependency is among the
// discovered rule IDs.
func checkDiscovered(what string, ids []string, planted []string) error {
	for _, p := range planted {
		if !contains(ids, p) {
			return fmt.Errorf("%s: planted dependency %s not discovered (found %v)", what, p, ids)
		}
	}
	return nil
}
