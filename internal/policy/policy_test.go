package policy

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"blobseer/internal/history"
	"blobseer/internal/instrument"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func at(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }

func TestParseBasicPolicy(t *testing.T) {
	ps, err := Parse(`
policy dos {
    when rate(write, 10s) > 100
    severity high
    then block(300s), log()
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 {
		t.Fatalf("policies=%d", len(ps))
	}
	p := ps[0]
	if p.Name != "dos" || p.Severity != High || len(p.Actions) != 2 {
		t.Fatalf("policy=%+v", p)
	}
	if p.Actions[0].Kind != ActBlock || p.Actions[0].Dur != 300*time.Second {
		t.Fatalf("action0=%+v", p.Actions[0])
	}
	if p.Actions[1].Kind != ActLog {
		t.Fatalf("action1=%+v", p.Actions[1])
	}
}

func TestParseDefaultSeverity(t *testing.T) {
	ps, err := Parse(`policy x { when trust() < 0.5 then log() }`)
	if err != nil {
		t.Fatal(err)
	}
	if ps[0].Severity != Medium {
		t.Fatalf("severity=%v", ps[0].Severity)
	}
}

func TestParseUnitsAndOperators(t *testing.T) {
	src := `
policy u {
    when bytes(write, 500ms) >= 512MB and count(read, 2m) != 0
         or not (failures(read, 1h) <= 3)
    then alert()
}`
	ps, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s := ps[0].Cond.String()
	for _, want := range []string{"500ms", "512MB", "and", "or", "not"} {
		if !strings.Contains(s, want) {
			t.Errorf("printed condition %q missing %q", s, want)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := "# leading comment\npolicy c { when trust() < 1 # inline\n then log() }"
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`policy { when trust() < 1 then log() }`,
		`policy p { when trust() < then log() }`,
		`policy p { when rate(write) > 1 then log() }`,          // missing window
		`policy p { when rate(write, 10) > 1 then log() }`,      // window not duration
		`policy p { when trust() < 1 then block() }`,            // block needs duration
		`policy p { when trust() < 1 then block(10) }`,          // not a duration
		`policy p { when trust() < 1 then throttle(10s) }`,      // rate must be plain
		`policy p { when trust() < 1 then explode() }`,          // unknown action
		`policy p { when unknown_fn(10s) > 1 then log() }`,      // unknown aggregator
		`policy p { when trust() < 1 severity wild then log()}`, // bad severity
		`policy a { when trust()<1 then log() } policy a { when trust()<1 then log() }`,
		`policy p { when trust() = 1 then log() }`, // bad operator
		`policy p { when trust() < 1 then log() `,  // unterminated
		`policy p { when "unclosed`,
		`policy p { when trust() < 1zz then log() }`, // bad unit
	}
	for i, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: want parse error for %q", i, src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	MustParse(`nope`)
}

// Property: printing a parsed policy and re-parsing yields an identical
// print (print∘parse is a fixpoint).
// roundTripSources cover every construct of the language; they seed
// FuzzParse as well.
var roundTripSources = []string{
	`policy a { when rate(write, 10s) > 100 severity high then block(300s), log() }`,
	`policy b { when bytes(write, 10s) > 512MB and rate(read, 5s) > 10 then throttle(5) }`,
	`policy c { when distinct_blobs(30s) > 100 or trust() < 0.25 severity low then quarantine() }`,
	`policy d { when not (failures(read, 60s) > 20) then alert() }`,
	DefaultCatalog,
}

func TestPrintParseRoundTrip(t *testing.T) {
	for _, src := range roundTripSources {
		ps1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		for _, p1 := range ps1 {
			printed := p1.String()
			ps2, err := Parse(printed)
			if err != nil {
				t.Fatalf("reparse %q: %v", printed, err)
			}
			if ps2[0].String() != printed {
				t.Fatalf("not a fixpoint:\n%s\nvs\n%s", printed, ps2[0].String())
			}
		}
	}
}

// FuzzParse holds the parser to two properties: no source makes it
// panic, and every policy it accepts prints to a source that parses
// back to the same print.
func FuzzParse(f *testing.F) {
	for _, src := range roundTripSources {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ps, err := Parse(src)
		if err != nil {
			return
		}
		for _, p := range ps {
			printed := p.String()
			again, err := Parse(printed)
			if err != nil {
				t.Fatalf("accepted %q, but its print does not parse: %v\n%s", src, err, printed)
			}
			if len(again) != 1 || again[0].String() != printed {
				t.Fatalf("print of %q is not a fixpoint:\n%s", src, printed)
			}
		}
	})
}

func TestDefaultCatalogParses(t *testing.T) {
	ps := MustParse(DefaultCatalog)
	if len(ps) != 4 {
		t.Fatalf("catalog size=%d", len(ps))
	}
	names := Names(ps)
	want := []string{"crawler", "dos_read_flood", "dos_write_flood", "prober"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names=%v", names)
		}
	}
}

// floodHistory returns a history where "mallory" floods writes and
// "alice" behaves.
func floodHistory() *history.History {
	h := history.New()
	for i := 0; i < 30; i++ {
		h.Append(history.Event{Time: at(i / 3), User: "alice", Op: "write", Bytes: 1 << 20, OK: true})
	}
	for i := 0; i < 1000; i++ {
		h.Append(history.Event{Time: at(i / 100), User: "mallory", Op: "write", Bytes: 1 << 20, OK: true})
	}
	return h
}

func TestEngineDetectsFlood(t *testing.T) {
	h := floodHistory()
	en := NewEnforcer(WithClock(func() time.Time { return at(10) }))
	ps := MustParse(`policy flood { when rate(write, 10s) > 50 severity high then block(300s), log() }`)
	eng := NewEngine(h, ps, en)
	vs := eng.Evaluate(at(10))
	if len(vs) != 1 || vs[0].User != "mallory" || vs[0].Policy != "flood" {
		t.Fatalf("violations=%v", vs)
	}
	if !en.Blocked("mallory") {
		t.Fatal("mallory not blocked")
	}
	if en.Blocked("alice") {
		t.Fatal("alice wrongly blocked")
	}
	if len(en.Violations()) != 1 {
		t.Fatalf("log=%v", en.Violations())
	}
	first, ok := eng.FirstDetection("mallory")
	if !ok || first != at(10) {
		t.Fatalf("first detection=%v ok=%v", first, ok)
	}
}

func TestEngineCooldownSuppressesRefire(t *testing.T) {
	h := floodHistory()
	en := NewEnforcer()
	ps := MustParse(`policy flood { when rate(write, 10s) > 50 then log() }`)
	eng := NewEngine(h, ps, en, WithCooldown(3*time.Second))
	if vs := eng.Evaluate(at(10)); len(vs) != 1 {
		t.Fatalf("first scan=%v", vs)
	}
	if vs := eng.Evaluate(at(12)); len(vs) != 0 {
		t.Fatalf("cooldown scan=%v", vs)
	}
	// The flood events (t ≤ 9s) are still inside the 10s window at t=14,
	// and the cooldown has lapsed: the policy must fire again.
	if vs := eng.Evaluate(at(14)); len(vs) != 1 {
		t.Fatalf("post-cooldown scan=%v", vs)
	}
}

func TestEngineActivityWindowSkipsIdleUsers(t *testing.T) {
	h := history.New()
	for i := 0; i < 1000; i++ {
		h.Append(history.Event{Time: at(0), User: "old", Op: "write", OK: true})
	}
	en := NewEnforcer()
	ps := MustParse(`policy flood { when count(write, 1h) > 100 then block(10s) }`)
	eng := NewEngine(h, ps, en, WithActivityWindow(30*time.Second))
	if vs := eng.Evaluate(at(120)); len(vs) != 0 {
		t.Fatalf("idle user scanned: %v", vs)
	}
}

type fixedTrust map[string]float64

func (f fixedTrust) Value(u string) float64 {
	if v, ok := f[u]; ok {
		return v
	}
	return 1
}

func TestTrustAggregator(t *testing.T) {
	h := history.New()
	h.Append(history.Event{Time: at(0), User: "shady", Op: "read", OK: true})
	h.Append(history.Event{Time: at(0), User: "clean", Op: "read", OK: true})
	en := NewEnforcer()
	ps := MustParse(`policy lowtrust { when trust() < 0.5 and count(read, 60s) > 0 then quarantine() }`)
	eng := NewEngine(h, ps, en, WithTrust(fixedTrust{"shady": 0.2}))
	vs := eng.Evaluate(at(1))
	if len(vs) != 1 || vs[0].User != "shady" {
		t.Fatalf("violations=%v", vs)
	}
	if !en.Blocked("shady") || en.Blocked("clean") {
		t.Fatal("quarantine misapplied")
	}
}

func TestEnforcerBlockExpiry(t *testing.T) {
	now := at(0)
	en := NewEnforcer(WithClock(func() time.Time { return now }))
	en.Block("u", 10*time.Second, Violation{Time: at(0), User: "u"})
	if err := en.Allow(context.Background(), "u", instrument.OpWrite); !errors.Is(err, ErrBlocked) {
		t.Fatalf("want ErrBlocked, got %v", err)
	}
	now = at(11)
	if err := en.Allow(context.Background(), "u", instrument.OpWrite); err != nil {
		t.Fatalf("after expiry: %v", err)
	}
	blocks, unblocks := en.Counters()
	if blocks != 1 || unblocks != 1 {
		t.Fatalf("counters=%d,%d", blocks, unblocks)
	}
}

func TestEnforcerThrottle(t *testing.T) {
	now := at(0)
	en := NewEnforcer(WithClock(func() time.Time { return now }))
	en.Throttle("u", 2, Violation{Time: at(0), User: "u"})
	// Bucket starts with 2 tokens.
	if err := en.Allow(context.Background(), "u", instrument.OpRead); err != nil {
		t.Fatal(err)
	}
	if err := en.Allow(context.Background(), "u", instrument.OpRead); err != nil {
		t.Fatal(err)
	}
	if err := en.Allow(context.Background(), "u", instrument.OpRead); !errors.Is(err, ErrThrottled) {
		t.Fatalf("want ErrThrottled, got %v", err)
	}
	// One second refills 2 tokens.
	now = at(1)
	if err := en.Allow(context.Background(), "u", instrument.OpRead); err != nil {
		t.Fatal(err)
	}
}

func TestEnforcerManualUnblockAndLists(t *testing.T) {
	en := NewEnforcer()
	en.Quarantine("u", Violation{Time: t0, User: "u"})
	if !en.Blocked("u") {
		t.Fatal("quarantine did not block")
	}
	if got := en.BlockedUsers(); len(got) != 1 || got[0] != "u" {
		t.Fatalf("blocked users=%v", got)
	}
	en.Unblock("u")
	if en.Blocked("u") {
		t.Fatal("unblock failed")
	}
}

func TestEnforcerAlerts(t *testing.T) {
	en := NewEnforcer()
	en.Alert(Violation{Time: t0, User: "u", Policy: "p"})
	if got := en.Alerts(); len(got) != 1 || got[0].Policy != "p" {
		t.Fatalf("alerts=%v", got)
	}
}

func TestSetPolicies(t *testing.T) {
	h := floodHistory()
	en := NewEnforcer()
	eng := NewEngine(h, nil, en)
	if vs := eng.Evaluate(at(10)); len(vs) != 0 {
		t.Fatalf("no policies but violations=%v", vs)
	}
	eng.SetPolicies(MustParse(`policy f { when rate(write, 10s) > 50 then log() }`))
	if vs := eng.Evaluate(at(10)); len(vs) != 1 {
		t.Fatalf("violations=%v", vs)
	}
	if len(eng.Policies()) != 1 {
		t.Fatal("Policies() lost the set")
	}
}

// Property: parseNumber is total on well-formed inputs and duration/size
// units never collide.
func TestParseNumberProperty(t *testing.T) {
	f := func(n uint16, unitIdx uint8) bool {
		units := []string{"", "ms", "s", "m", "h", "B", "KB", "MB", "GB", "TB"}
		u := units[int(unitIdx)%len(units)]
		s := time.Duration(n).String() // arbitrary numeric text? no — build directly
		_ = s
		src := formatNum(float64(n)) + u
		v, isDur, err := parseNumber(src)
		if err != nil {
			return false
		}
		wantDur := u == "ms" || u == "s" || u == "m" || u == "h"
		return isDur == wantDur && v >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func formatNum(v float64) string {
	return strings.TrimSuffix(strings.TrimSuffix(
		strings.TrimRight(strings.TrimRight(
			fmtFloat(v), "0"), "."), ""), "")
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
