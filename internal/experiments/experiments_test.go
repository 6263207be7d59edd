package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

func cellF(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Cell(row, col), 64)
	if err != nil {
		t.Fatalf("cell(%d,%d)=%q: %v", row, col, tb.Cell(row, col), err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"}}
	tb.Add(1, 2.5)
	tb.Note("hello %d", 7)
	s := tb.String()
	for _, want := range []string{"== X: demo ==", "a", "bb", "2.5", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2.5\n") {
		t.Fatalf("csv=%q", csv)
	}
	if tb.Cell(5, 5) != "" {
		t.Fatal("out-of-range cell should be empty")
	}
}

func TestExpBQuickShape(t *testing.T) {
	tb := ExpB(Scale{Quick: true})
	if len(tb.Rows) != 2 {
		t.Fatalf("rows=%d", len(tb.Rows))
	}
	for i := range tb.Rows {
		off := cellF(t, tb, i, 1)
		on := cellF(t, tb, i, 2)
		if on < off*0.97 {
			t.Fatalf("row %d: monitoring overhead too high: off=%v on=%v", i, off, on)
		}
		params := cellF(t, tb, i, 4)
		if params <= 0 {
			t.Fatalf("row %d: no monitoring params", i)
		}
	}
	// Params scale with client count.
	if cellF(t, tb, 1, 4) <= cellF(t, tb, 0, 4) {
		t.Fatal("params did not grow with clients")
	}
}

func TestExpC1QuickShape(t *testing.T) {
	tb := ExpC1(Scale{Quick: true})
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	// All 10 attackers end up blocked by the end of the run.
	lastBlocked := cellF(t, tb, len(tb.Rows)-1, 2)
	if lastBlocked != 10 {
		t.Fatalf("blocked at end=%v", lastBlocked)
	}
	// The note must report a material dip and a strong recovery.
	note := strings.Join(tb.Notes, " ")
	if !strings.Contains(note, "dip") || !strings.Contains(note, "recovery") {
		t.Fatalf("notes=%q", note)
	}
}

func TestExpC2QuickShape(t *testing.T) {
	tb := ExpC2(Scale{Quick: true})
	if len(tb.Rows) != 2 {
		t.Fatalf("rows=%d", len(tb.Rows))
	}
	for i := range tb.Rows {
		base := cellF(t, tb, i, 1)
		noSec := cellF(t, tb, i, 2)
		withSec := cellF(t, tb, i, 3)
		if base < 100 || base > 120 {
			t.Fatalf("row %d: baseline=%v, want ≈110", i, base)
		}
		if withSec < noSec {
			t.Fatalf("row %d: security made things worse (%v < %v)", i, withSec, noSec)
		}
	}
	// Attack impact grows with client count (nosec at 30 < nosec at 10).
	if cellF(t, tb, 1, 2) >= cellF(t, tb, 0, 2) {
		t.Fatal("unprotected throughput did not degrade with more clients")
	}
}

func TestExpC3QuickShape(t *testing.T) {
	tb := ExpC3(Scale{Quick: true})
	if len(tb.Rows) != 2 {
		t.Fatalf("rows=%d", len(tb.Rows))
	}
	for i, wantDetected := range []float64{5, 35} {
		if got := cellF(t, tb, i, 3); got != wantDetected {
			t.Fatalf("row %d: detected=%v want %v", i, got, wantDetected)
		}
		first := cellF(t, tb, i, 1)
		last := cellF(t, tb, i, 2)
		if first <= 0 || last < first {
			t.Fatalf("row %d: first=%v last=%v", i, first, last)
		}
	}
	// Detection spread grows with malicious fraction.
	if cellF(t, tb, 1, 2) <= cellF(t, tb, 0, 2) {
		t.Fatal("last-detection delay did not grow with malicious fraction")
	}
}

func TestExpDQuick(t *testing.T) {
	tb := ExpD(Scale{Quick: true})
	if len(tb.Rows) != 2 {
		t.Fatalf("rows=%d", len(tb.Rows))
	}
	for i := range tb.Rows {
		if cellF(t, tb, i, 1) <= 0 || cellF(t, tb, i, 2) <= 0 {
			t.Fatalf("row %d: nonpositive throughput", i)
		}
	}
}

func TestDD1Quick(t *testing.T) {
	tb := DD1(Scale{Quick: true})
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	// The pool must have grown beyond its initial 8 at some point.
	grew := false
	for i := range tb.Rows {
		if cellF(t, tb, i, 2) > 8 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("elasticity never expanded the pool")
	}
}

func TestDD2Quick(t *testing.T) {
	tb := DD2(context.Background(), Scale{Quick: true})
	if len(tb.Rows) != 3 {
		t.Fatalf("rows=%d", len(tb.Rows))
	}
	for i := range tb.Rows {
		if got := tb.Cell(i, 3); got != "4/4" {
			t.Fatalf("row %d: readable=%s, want 4/4", i, got)
		}
		if cellF(t, tb, i, 2) != cellF(t, tb, i, 1) {
			t.Fatalf("row %d: repaired != under-replicated", i)
		}
	}
}

func TestDD3Quick(t *testing.T) {
	tb := DD3(Scale{Quick: true})
	if len(tb.Rows) != 4 {
		t.Fatalf("rows=%d", len(tb.Rows))
	}
	find := func(phase, user string) []string {
		for _, r := range tb.Rows {
			if r[0] == phase && r[1] == user {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", phase, user)
		return nil
	}
	// After the moderate burst: the repeat offender is blocked by the
	// adaptive policy; the first-time user is not.
	if r := find("after_moderate_burst", "repeat"); r[4] != "true" {
		t.Fatalf("repeat offender not re-blocked: %v", r)
	}
	if r := find("after_moderate_burst", "onetime"); r[4] != "false" {
		t.Fatalf("first-time user wrongly blocked: %v", r)
	}
}
