package main

import (
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"testing"
	"time"

	"tendax/internal/protocol"
	"tendax/internal/server"
	"tendax/internal/util"
)

// TestBenchmarkJSON keeps BENCHMARK.json and the metric lists the runs
// emit in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s, the benchmark emits %s/%s",
					what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, err := newWorkload(w.Name, 1, nil); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload briefly, untraced and
// traced, and checks the result line carries every metric of its set and
// that the run's own checks passed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, name := range []string{"keystroke", "burst", "search"} {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 2, trace: trace, work: t.TempDir()}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or mis-united: %+v", name, trace, d.Name, m)
				}
			}
		}
	}
}

func TestCheckReplicaCatchesCorruption(t *testing.T) {
	want := "the quick brown fox"
	if p := checkReplica("a", want, want); p != nil {
		t.Fatalf("identical replica flagged: %v", p)
	}
	for _, bad := range []string{"the quick brewn fox", "the quick brown fo", "the quick brown foxx", ""} {
		if p := checkReplica("a", bad, want); len(p) != 1 {
			t.Errorf("corrupted replica %q passed", bad)
		}
	}
}

// TestMaskedViewCatchesCorruption: the restricted reader must see the
// mask rune exactly at the denied characters that reached it by push.
func TestMaskedViewCatchesCorruption(t *testing.T) {
	text := "pub«sec»tail"
	ids := make([]util.ID, len([]rune(text)))
	for i := range ids {
		ids[i] = util.ID(i + 1)
	}
	mask := []bool{true, true, true, false, false, false, false, false, true, true, true, true}
	before := map[util.ID]bool{4: true, 8: true} // the anchors predate the rule
	m := string(server.MaskRune)
	want := "pub«" + m + m + m + "»tail"
	if got := maskedView(text, ids, mask, before); got != want {
		t.Fatalf("maskedView = %q, want %q", got, want)
	}
	for _, bad := range []string{
		"pub«sec»tail",                  // leaked plaintext
		"pub«" + m + m + "c»tail",       // one denied rune in the clear
		m + "ub«" + m + m + m + "»tail", // a readable rune masked
		"pub" + m + m + m + m + m + "tail",
	} {
		if p := checkReplica("bob", bad, want); len(p) == 0 {
			t.Errorf("corrupted restricted replica %q passed", bad)
		}
	}
}

func TestCheckDurableCatchesLoss(t *testing.T) {
	pre := map[util.ID]string{1: "alpha", 2: "beta"}
	if p := checkDurable(pre, map[util.ID]string{1: "alpha", 2: "beta"}); p != nil {
		t.Fatalf("identical restart flagged: %v", p)
	}
	for _, post := range []map[util.ID]string{
		{1: "alpha"},                          // a document lost
		{1: "alpha", 2: "bet"},                // an acknowledged character lost
		{1: "alpha", 2: "beta", 3: "phantom"}, // a document that was never there
	} {
		if p := checkDurable(pre, post); len(p) == 0 {
			t.Errorf("corrupted restart %v passed", post)
		}
	}
}

func TestCheckHitsCatchesWrongAnswers(t *testing.T) {
	docs := map[uint64]*sdoc{
		1: {id: 1, text: []rune("alpha beta gamma")},
		2: {id: 2, text: []rune("alphabet soup"), docDenied: true},
	}
	hit := func(id uint64, name string) protocol.SearchHit {
		return protocol.SearchHit{Doc: protocol.DocInfo{ID: id, Name: name}}
	}
	if p := checkHits([]string{"beta"}, []protocol.SearchHit{hit(1, "d1"), hit(9, "probe")}, docs); p != nil {
		t.Fatalf("correct hits flagged: %v", p)
	}
	for _, c := range []struct {
		terms []string
		hits  []protocol.SearchHit
	}{
		{[]string{"delta"}, []protocol.SearchHit{hit(1, "d1")}}, // term absent
		{[]string{"alpha"}, []protocol.SearchHit{hit(2, "d2")}}, // denied document
		{[]string{"alph"}, []protocol.SearchHit{hit(1, "d1")}},  // only a word prefix
		{[]string{"beta"}, []protocol.SearchHit{hit(5, "d5")}},  // unknown document
	} {
		if p := checkHits(c.terms, c.hits, docs); len(p) == 0 {
			t.Errorf("wrong hits %v for %v passed", c.hits, c.terms)
		}
	}
}

// TestFailedOpsCount: a failed op counts as failed and misses every
// latency limit of the sets it belonged to.
func TestFailedOpsCount(t *testing.T) {
	ph := &phase{start: time.Now().Add(-time.Second)}
	ph.attempted.Add(2)
	ph.add(&ph.ack, time.Millisecond)
	ph.fail(&ph.ack, &ph.op)
	if ph.failed.Load() != 1 || len(ph.ack) != 2 || len(ph.op) != 1 {
		t.Fatalf("failed=%d ack=%d op=%d", ph.failed.Load(), len(ph.ack), len(ph.op))
	}
	if ph.ack.pct(1) < 1000 || ph.op.pct(1) < 1000 {
		t.Fatalf("failed op recorded faster than the phase: %v %v", ph.ack, ph.op)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.record("parent", at(0), at(10), 0, 1)
	tr.record("child", at(2), at(5), 1, 1)
	tr.record("child", at(4), at(7), 1, 1) // overlaps the first child
	tr.record("child", at(9), at(12), 1, 1)
	self := tr.selfTimes()
	if got := self["parent"]; got < 3.99 || got > 4.01 {
		t.Fatalf("parent self time %.3f ms, want 4 (10 minus the 6 its children cover)", got)
	}
}

func TestHasWord(t *testing.T) {
	for _, c := range []struct {
		text, term string
		want       bool
	}{
		{"alpha beta", "beta", true},
		{"alphabeta", "beta", false},
		{"beta. gamma", "beta", true},
		{"zqabx ab", "ab", true},
		{"betas", "beta", false},
	} {
		if got := hasWord(c.text, c.term); got != c.want {
			t.Errorf("hasWord(%q, %q) = %v", c.text, c.term, got)
		}
	}
	text := newVocab(rand.New(rand.NewSource(1)), 500).text(50000)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		tok := tokenFor(1, i)
		if seen[tok] || hasWord(text, tok) {
			t.Fatalf("token %s is not fresh", tok)
		}
		seen[tok] = true
	}
}
