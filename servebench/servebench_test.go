package main

import (
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
)

func TestSequenceIsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		g, err := w.Graph()
		if err != nil {
			t.Fatal(err)
		}
		a := w.Sequence(7, g, 40)
		b := w.Sequence(7, g, 40)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", w.Name)
		}
		c := w.Sequence(8, g, 40)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w.Name)
		}
	}
}

func TestDeckRoundsHoldTheExactMix(t *testing.T) {
	g, err := finPoint.Graph()
	if err != nil {
		t.Fatal(err)
	}
	seq := finPoint.Sequence(3, g, 3*finPoint.Round)
	for r := 0; r < 3; r++ {
		count := map[string]int{}
		for _, q := range seq[r*finPoint.Round : (r+1)*finPoint.Round] {
			count[q.Case]++
		}
		want := map[string]int{"C7": 5, "C8": 5, "C10": 4, "C11": 2, "C9": 2, "C12": 2}
		if !reflect.DeepEqual(count, want) {
			t.Errorf("round %d mix = %v, want %v", r, count, want)
		}
	}
}

func TestDigestComparesTiesByKeyOnly(t *testing.T) {
	sh := shape{keyCol: 0, limit: 3}
	// The limit cuts through the run of rows with key 2, so which of them
	// survive is not determined.
	a := digest(sh, [][]any{{int64(5), "x"}, {int64(2), "y"}, {int64(2), "z"}})
	b := digest(sh, [][]any{{float64(5), "x"}, {int64(2), "w"}, {int64(2), "y"}})
	if !a.equal(b) {
		t.Errorf("tied rows at the limit should compare by key only: %v vs %v", a, b)
	}
	c := digest(sh, [][]any{{int64(5), "q"}, {int64(2), "y"}, {int64(2), "z"}})
	if a.equal(c) {
		t.Error("a changed row above the tie should not compare equal")
	}
	d := digest(sh, [][]any{{int64(5), "x"}, {int64(3), "y"}, {int64(2), "z"}})
	if a.equal(d) {
		t.Error("changed key values should not compare equal")
	}
	unordered := shape{keyCol: -1}
	if !digest(unordered, [][]any{{1.5}, {"a"}}).equal(digest(unordered, [][]any{{"a"}, {1.5}})) {
		t.Error("row order should not matter without ORDER BY")
	}
	if digest(unordered, [][]any{{"a"}}).equal(digest(unordered, [][]any{{"a"}, {"a"}})) {
		t.Error("multiplicity should matter")
	}
}

func quick(w *Workload) Config {
	return Config{
		Workload:     w,
		Seed:         11,
		Measure:      200 * time.Millisecond,
		MinQueries:   3,
		SetupRuns:    2,
		TraceQueries: 4,
	}
}

func TestCorruptedReferenceFailsTheRun(t *testing.T) {
	cfg := quick(socialExport)
	cfg.WorkDir = t.TempDir()
	cfg.Reference = func(eng *engine.Engine, q Query) (answer, error) {
		a, err := referenceAnswer(eng, q)
		a.Sum1++
		return a, err
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Errorf("corrupted reference: correct=%v attempted=%d failed=%d, want every answer failed", res.Correct, res.Attempted, res.Failed)
	}
}

func TestRunLeavesNoGoroutineOrListener(t *testing.T) {
	before := runtime.NumGoroutine()
	var addrs []string
	for _, trace := range []bool{false, true} {
		cfg := quick(socialExport)
		cfg.WorkDir = t.TempDir()
		cfg.Trace = trace
		res, err := run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("trace=%v: %d of %d answers wrong: %v", trace, res.Failed, res.Attempted, res.Notes)
		}
		addrs = append(addrs, res.Addrs...)
	}
	if len(addrs) == 0 {
		t.Fatal("run reported no listener addresses")
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the runs, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			_ = c.Close()
			t.Errorf("listener %s still accepts connections", a)
		}
	}
}

func TestCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's traced replay twice")
	}
	exact := []string{"wire.writes_per_row", "server.writes_per_row", "vexpand.pairs_per_query", "exec.cache_hits_per_query"}
	for _, w := range workloads {
		var first *Result
		for i := 0; i < 2; i++ {
			cfg := quick(w)
			cfg.WorkDir = t.TempDir()
			cfg.Trace = true
			res, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("%s: %d of %d answers wrong: %v", w.Name, res.Failed, res.Attempted, res.Notes)
			}
			if first == nil {
				first = res
				continue
			}
			for _, name := range exact {
				a, _ := first.Value(name)
				b, ok := res.Value(name)
				if !ok || a != b {
					t.Errorf("%s: %s = %v then %v, want the same count", w.Name, name, a, b)
				}
			}
		}
	}
}
