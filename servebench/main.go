// Command servebench measures the serving stack end to end: it generates a
// workload's graph, writes and reopens it through storage, serves it from
// one engine through the session service over HTTP and VSWP on loopback,
// and drives it with one closed-loop client for a fixed measured time.
// Every answer is checked against cypher.RunContext on a cache-off engine.
//
//	bash servebench/run.sh --workload social-analytics --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// replay of the workload's query sequence through each layer in turn (see
// ladder.go). A human-readable report goes to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
)

// deadline bounds a whole run, set-up and clean-up included.
const deadline = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload name: social-analytics, fin-point or social-export")
	seed := flag.Int64("seed", 1, "seed for the graph and the query sequence")
	seconds := flag.Float64("seconds", 20, "measured time of the closed loop")
	trace := flag.Int("trace", 0, "1 replays the sequence layer by layer and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for temporary graphs and span files")
	flag.Parse()

	w, err := workloadByName(*workload)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fatal(errors.New("need --seconds > 0 and --trace 0 or 1"))
	}
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	res, err := run(Config{
		Workload: w,
		Seed:     *seed,
		Measure:  time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		WorkDir:  *workdir,
		Stop:     &interrupt{signals: signals, deadline: time.Now().Add(deadline)},
	})
	signal.Stop(signals)
	if err != nil {
		fatal(err)
	}
	res.report(os.Stderr)
	line, err := res.jsonLine()
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(2)
}

// Config is one benchmark run.
type Config struct {
	Workload *Workload
	Seed     int64
	Measure  time.Duration
	Trace    bool
	WorkDir  string
	// SetupRuns is how many times the stack is set up; setup_s is the
	// median. 0 means 7.
	SetupRuns int
	// MinQueries is the fewest queries a timed run completes; 0 means
	// minQueries.
	MinQueries int
	// TraceQueries overrides the workload's traced replay length when > 0.
	TraceQueries int
	// Reference computes expected answers; nil means referenceAnswer.
	Reference referenceFunc
	// Stop ends the run early on a signal or past a deadline; nil never
	// stops it.
	Stop *interrupt
}

// interrupt is checked between queries: a run stops at the first check
// after a signal arrives or the deadline passes. No single query of the
// workloads takes more than a few seconds.
type interrupt struct {
	signals  <-chan os.Signal
	deadline time.Time
	caught   os.Signal
}

func (in *interrupt) err() error {
	if in == nil {
		return nil
	}
	if in.caught == nil {
		select {
		case sig := <-in.signals:
			in.caught = sig
		default:
		}
	}
	if in.caught != nil {
		return fmt.Errorf("stopped by %v", in.caught)
	}
	if time.Now().After(in.deadline) {
		return errors.New("stopped: run deadline passed")
	}
	return nil
}

// Metric is one reported number.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Result is a finished run.
type Result struct {
	Workload  string
	Seed      int64
	Trace     bool
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []Metric
	// Notes are extra report lines that are not metrics.
	Notes []string
	// Addrs are the listener addresses the run used, all closed by now.
	Addrs []string
}

func (r *Result) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit})
}

// Value returns the named metric's value.
func (r *Result) Value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

func (r *Result) jsonLine() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(b), err
}

func (r *Result) report(f *os.File) {
	mode := "end-to-end, tracing off"
	if r.Trace {
		mode = "per-layer, traced replay"
	}
	fmt.Fprintf(f, "servebench %s seed %d (%s): %d checked, %d failed\n", r.Workload, r.Seed, mode, r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		fmt.Fprintf(f, "  %-28s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(f, "  %s\n", n)
	}
}

// run sets the stack up, measures, checks every answer, and tears every
// server, connection and temporary directory down before returning.
func run(cfg Config) (*Result, error) {
	if cfg.SetupRuns <= 0 {
		cfg.SetupRuns = 7
	}
	if cfg.MinQueries <= 0 {
		cfg.MinQueries = minQueries
	}
	tmpRoot := filepath.Join(cfg.WorkDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	res := &Result{Workload: cfg.Workload.Name, Seed: cfg.Seed, Trace: cfg.Trace}

	// Set up several times; keep the last stack for the measurement.
	var stages []stageTimes
	var g *graph.Graph
	var stack *Stack
	defer func() {
		if stack != nil {
			stack.Close()
		}
	}()
	for i := 0; i < cfg.SetupRuns; i++ {
		if stack != nil {
			stack.Close()
			stack = nil
		}
		if err := cfg.Stop.err(); err != nil {
			return nil, err
		}
		var st stageTimes
		var err error
		g, st, err = buildGraph(cfg.Workload, tmpRoot)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		start := time.Now()
		stack, err = startStack(g)
		st.Serve = time.Since(start)
		if stack != nil {
			res.Addrs = append(res.Addrs, stack.Addrs()...)
		}
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		stages = append(stages, st)
	}
	stage := func(f func(stageTimes) time.Duration) float64 {
		v := make([]float64, len(stages))
		for i, st := range stages {
			v[i] = f(st).Seconds()
		}
		return quantile(v, 0.5)
	}

	// References run on their own cache-off engine over the same graph.
	chk := newChecker(engine.New(g, engine.Options{}), cfg.Reference)
	if cfg.Trace {
		res.add("datagen.generate_s", stage(func(s stageTimes) time.Duration { return s.Generate }), "s")
		res.add("storage.write_s", stage(func(s stageTimes) time.Duration { return s.Write }), "s")
		res.add("storage.open_s", stage(func(s stageTimes) time.Duration { return s.Open }), "s")
		// The ladder builds its own stacks; the set-up stack is not needed.
		stack.Close()
		stack = nil
		if err := runLadder(cfg, g, chk, res); err != nil {
			return nil, err
		}
	} else {
		res.add("setup_s", stage(stageTimes.total), "s")
		if err := measure(cfg, g, stack, chk, res); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// minQueries is the fewest queries a timed run completes by default, so
// that the 90th percentile has at least ten samples beyond it.
const minQueries = 100

// measure runs the closed loop: one client sends the next query of the
// seeded sequence as soon as the previous answer's last row arrives, until
// the time spent waiting on answers reaches cfg.Measure, at least
// cfg.MinQueries have completed, and the current round of the workload's mix
// is complete, so every run measures the exact mix. Digests, checks and
// allocation reads happen between requests, outside the measured time.
func measure(cfg Config, g *graph.Graph, stack *Stack, chk *checker, res *Result) error {
	gen := cfg.Workload.NewGenerator(cfg.Seed, g)
	type done struct {
		q   Query
		got answer
	}
	var (
		latencies []float64
		answers   []done
		measured  time.Duration
		rows      int64
		alloc     uint64
		ms        runtime.MemStats
	)
	for measured < cfg.Measure || len(latencies) < cfg.MinQueries || len(latencies)%cfg.Workload.Round != 0 {
		if err := cfg.Stop.err(); err != nil {
			return err
		}
		q := gen.Next()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		start := time.Now()
		got, err := stack.do(q, q.Transport)
		lat := time.Since(start)
		runtime.ReadMemStats(&ms)
		alloc += ms.TotalAlloc - before
		measured += lat
		latencies = append(latencies, float64(lat)/float64(time.Millisecond))
		rows += int64(len(got))
		answers = append(answers, done{q, answerOf(q, got, err)})
	}

	for _, a := range answers {
		if err := cfg.Stop.err(); err != nil {
			return err
		}
		ok, want, err := chk.check(a.q, a.got)
		if err != nil {
			return fmt.Errorf("reference for query %d: %w", a.q.Index, err)
		}
		res.Attempted++
		if !ok {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("WRONG query %d (%s over %s): got %v, want %v: %s",
				a.q.Index, a.q.Case, a.q.Transport, a.got, want, a.q.Text))
		}
	}

	n := float64(len(latencies))
	secs := measured.Seconds()
	res.add("latency_p50_ms", quantile(latencies, 0.5), "ms")
	res.add("latency_p90_ms", quantile(latencies, 0.9), "ms")
	res.add("throughput_qps", n/secs, "1/s")
	res.add("rows_per_s", float64(rows)/secs, "rows/s")
	res.add("alloc_mb_per_query", float64(alloc)/n/1e6, "MB")
	res.Notes = append(res.Notes,
		fmt.Sprintf("error_rate %.4f (%d of %d queries failed or answered wrongly)", float64(res.Failed)/n, res.Failed, len(latencies)),
		fmt.Sprintf("%d queries, %d rows in %.3f s measured; one closed-loop client", len(latencies), rows, secs))
	return nil
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (the usual "type 7" definition).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
