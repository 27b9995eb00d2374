package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cypher"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/session"
	"repro/internal/telemetry"
)

// The traced run sends each of the first TraceQueries queries of the
// workload's seeded sequence through every rung of a ladder, innermost
// first:
//
//  1. cypher.Parse
//  2. cypher.ExplainQuery (bind + plan), then cypher.AnalyzeQuery
//  3. cypher.RunContext, or cypher.Stream for streamable queries
//  4. session.OpenSession, Run and a Fetch loop
//  5. each transport: VSWP through client/, HTTP NDJSON, HTTP JSON
//
// Every rung from 2 on has its own engine, fresh when the replay starts,
// so every rung sees the cache history of the timed run. A query visits
// all rungs before the next query starts, so a slow spell of the host
// lands on every rung alike. A layer's self time is its rung minus the
// next inner rung. A span is recorded around every call, and the spans are
// written to a file when the run ends.

// span is one timed call. Times are nanoseconds since the run started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Request string `json:"request,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory; the ladder runs on one goroutine.
type spanRecorder struct {
	origin time.Time
	spans  []span
}

func (r *spanRecorder) start(name string, parent int, request string) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Request: request,
		Start: int64(time.Since(r.origin)),
	})
	return len(r.spans)
}

func (r *spanRecorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = int64(time.Since(r.origin))
	return time.Duration(s.End - s.Start)
}

func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// counters are the process-wide telemetry counters the cypher rung reads.
type counters struct {
	matrixBytes, pairs, cacheHits, evictions int64
}

func readCounters() counters {
	return counters{
		matrixBytes: telemetry.ExpandMatrixBytes.Value(),
		pairs:       telemetry.QueryCostPairs.Value(),
		cacheHits:   telemetry.MatrixCacheHits.Value(),
		evictions:   telemetry.MatrixCacheEvictions.Value(),
	}
}

func (a counters) add(b counters) counters {
	return counters{a.matrixBytes + b.matrixBytes, a.pairs + b.pairs, a.cacheHits + b.cacheHits, a.evictions + b.evictions}
}

func (a counters) sub(b counters) counters {
	return counters{a.matrixBytes - b.matrixBytes, a.pairs - b.pairs, a.cacheHits - b.cacheHits, a.evictions - b.evictions}
}

// rung accumulates one rung's replay of the sequence.
type rung struct {
	wall   time.Duration
	rows   int64
	allocs int64 // heap allocations made while the rung's queries ran
	writes writeCounts
}

// timed runs call, adding its wall time and allocations to the rung. A
// collection first starts every rung's call on an equally clean heap, so
// garbage one rung left behind is not collected on the next rung's time.
func (r *rung) timed(call func() ([][]any, error)) ([][]any, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	rows, err := call()
	d := time.Since(start)
	runtime.ReadMemStats(&ms)
	r.wall += d
	r.allocs += int64(ms.Mallocs - mallocs)
	r.rows += int64(len(rows))
	return rows, err
}

// ladder holds every rung's engine or stack for one replay.
type ladder struct {
	chk *checker
	res *Result
	rec *spanRecorder

	planEng, cypherEng *engine.Engine
	svc                *session.Service
	stacks             map[string]*Stack // per transport, plus "" untraced

	parse, plan               time.Duration
	worstEst                  float64
	timings                   engine.Timings
	project, streamed         time.Duration
	engineCounts              counters
	cypher, session, untraced rung
	transports                map[string]*rung
	tracedOwn                 time.Duration // each query on its own transport, traced
}

func runLadder(cfg Config, g *graph.Graph, chk *checker, res *Result) (err error) {
	n := cfg.Workload.TraceQueries
	if cfg.TraceQueries > 0 {
		n = cfg.TraceQueries
	}
	queries := cfg.Workload.Sequence(cfg.Seed, g, n)
	l := &ladder{
		chk:        chk,
		res:        res,
		rec:        &spanRecorder{origin: time.Now()},
		planEng:    newEngine(g),
		cypherEng:  newEngine(g),
		svc:        session.NewService(newEngine(g), session.Options{}),
		stacks:     map[string]*Stack{},
		transports: map[string]*rung{},
		worstEst:   1,
	}
	defer func() {
		for _, s := range l.stacks {
			res.Addrs = append(res.Addrs, s.Addrs()...)
			s.Close()
		}
	}()
	for _, t := range append([]string{""}, allTransports...) {
		s, err := startStack(g)
		if s != nil {
			l.stacks[t] = s
		}
		if err != nil {
			return err
		}
		l.transports[t] = &rung{}
	}
	base := map[string]writeCounts{}
	for _, t := range allTransports {
		base[t] = l.stacks[t].writes(t)
	}

	for _, q := range queries {
		if err := cfg.Stop.err(); err != nil {
			return err
		}
		if err := l.step(q); err != nil {
			return err
		}
	}
	for _, t := range allTransports {
		l.transports[t].writes = l.stacks[t].writes(t).sub(base[t])
	}
	l.report(len(queries))

	path := filepath.Join(cfg.WorkDir, "spans", fmt.Sprintf("%s-seed%d.json", cfg.Workload.Name, cfg.Seed))
	if err := l.rec.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d queries sent through every rung; %d spans written to %s", n, len(l.rec.spans), path))
	return nil
}

func newEngine(g *graph.Graph) *engine.Engine {
	return engine.New(g, engine.Options{CacheBytes: engine.DefaultCacheBytes})
}

// step sends one query through every rung.
func (l *ladder) step(q Query) error {
	// The reference runs first, so its work stays out of every rung's
	// counters.
	if _, err := l.chk.reference(q); err != nil {
		return fmt.Errorf("reference for query %d: %w", q.Index, err)
	}
	req := fmt.Sprintf("q%d", q.Index)
	root := l.rec.start("query", 0, req)
	defer l.rec.end(root)

	// Rung 1: parse.
	id := l.rec.start("cypher.Parse", root, req)
	parsed, err := cypher.Parse(q.Text)
	l.parse += l.rec.end(id)
	if err != nil {
		return fmt.Errorf("parse query %d: %w", q.Index, err)
	}

	// Rung 2: bind and plan, then the planner's estimates against actuals.
	id = l.rec.start("cypher.ExplainQuery", root, req)
	_, err = cypher.ExplainQuery(l.planEng, parsed, planParams(parsed, q.Params))
	l.plan += l.rec.end(id)
	if err != nil {
		return fmt.Errorf("explain query %d: %w", q.Index, err)
	}
	// AnalyzeQuery supports neither UNWIND nor shortestPath.
	if parsed.Unwind == nil && !isShortest(parsed) {
		id = l.rec.start("cypher.AnalyzeQuery", root, req)
		a, err := cypher.AnalyzeQuery(context.Background(), l.planEng, parsed, q.Params)
		l.rec.end(id)
		if err != nil {
			return fmt.Errorf("analyze query %d: %w", q.Index, err)
		}
		for _, op := range a.Ops {
			if op.ErrRatio > 0 {
				l.worstEst = math.Max(l.worstEst, math.Max(op.ErrRatio, 1/op.ErrRatio))
			}
		}
	}

	// Rung 3: cypher.
	before := readCounters()
	var rows [][]any
	if cypher.Streamable(parsed) {
		id = l.rec.start("cypher.Stream", root, req)
		rows, err = l.cypher.timed(func() ([][]any, error) { return streamQuery(l.cypherEng, q) })
		l.streamed += l.rec.end(id)
	} else {
		id = l.rec.start("cypher.RunContext", root, req)
		var res *cypher.Result
		var inner time.Duration
		rows, err = l.cypher.timed(func() ([][]any, error) {
			var rerr error
			res, inner, rerr = runQuery(l.cypherEng, q)
			if rerr != nil {
				return nil, rerr
			}
			return res.Rows, nil
		})
		l.rec.end(id)
		if err == nil {
			l.timings.Add(res.Timings)
			l.project += inner - res.Timings.Total
		}
	}
	l.engineCounts = l.engineCounts.add(readCounters().sub(before))
	if err := l.verify("cypher", q, rows, err); err != nil {
		return err
	}

	// Rung 4: session.
	id = l.rec.start("session.Run+Fetch", root, req)
	rows, err = l.session.timed(func() ([][]any, error) { return sessionQuery(l.svc, q) })
	l.rec.end(id)
	if err := l.verify("session", q, rows, err); err != nil {
		return err
	}

	// Rung 5: every transport, traced.
	for _, t := range allTransports {
		id = l.rec.start(t+".query", root, req)
		rows, err = l.transports[t].timed(func() ([][]any, error) { return l.stacks[t].do(q, t) })
		d := l.rec.end(id)
		if t == q.Transport {
			l.tracedOwn += d
		}
		if err := l.verify(t, q, rows, err); err != nil {
			return err
		}
	}

	// The query's own transport once more, with no span around it.
	rows, err = l.untraced.timed(func() ([][]any, error) { return l.stacks[""].do(q, q.Transport) })
	return l.verify("untraced", q, rows, err)
}

// verify checks one rung's answer to q and counts it.
func (l *ladder) verify(rung string, q Query, rows [][]any, err error) error {
	got := answerOf(q, rows, err)
	ok, want, cerr := l.chk.check(q, got)
	if cerr != nil {
		return fmt.Errorf("reference for query %d: %w", q.Index, cerr)
	}
	l.res.Attempted++
	if !ok {
		l.res.Failed++
		l.res.Notes = append(l.res.Notes, fmt.Sprintf("WRONG query %d at rung %s: got %v, want %v: %s", q.Index, rung, got, want, q.Text))
	}
	return nil
}

func (l *ladder) report(n int) {
	nq := float64(n)
	perQuery := func(d time.Duration, unit time.Duration) float64 { return float64(d) / nq / float64(unit) }
	selfMs := func(outer, inner rung) float64 { return perQuery(outer.wall-inner.wall, time.Millisecond) }
	r := l.res
	r.add("cypher.parse_us", perQuery(l.parse, time.Microsecond), "us")
	r.add("planner.plan_us", perQuery(l.plan, time.Microsecond), "us")
	r.add("planner.est_error", l.worstEst, "ratio")
	r.add("engine.scan_ms", perQuery(l.timings.Scan, time.Millisecond), "ms")
	r.add("vexpand.expand_ms", perQuery(l.timings.Expand, time.Millisecond), "ms")
	r.add("vexpand.update_visit_ms", perQuery(l.timings.UpdateVisit, time.Millisecond), "ms")
	r.add("mintersect.intersect_ms", perQuery(l.timings.Intersect, time.Millisecond), "ms")
	r.add("vexpand.matrix_mb_per_query", float64(l.engineCounts.matrixBytes)/nq/1e6, "MB")
	r.add("vexpand.pairs_per_query", float64(l.engineCounts.pairs)/nq, "count")
	r.add("exec.cache_hits_per_query", float64(l.engineCounts.cacheHits)/nq, "count")
	r.add("exec.cache_evictions", float64(l.engineCounts.evictions), "count")
	r.add("cypher.project_ms", perQuery(l.project, time.Millisecond), "ms")
	r.add("cypher.stream_ms", perQuery(l.streamed, time.Millisecond), "ms")
	r.add("session.self_ms", selfMs(l.session, l.cypher), "ms")

	vswp := *l.transports[transportVSWP]
	r.add("wire.self_ms", selfMs(vswp, l.session), "ms")
	r.add("wire.writes_per_row", perRow(float64(vswp.writes.writes), vswp.rows), "count")
	r.add("wire.bytes_per_row", perRow(float64(vswp.writes.bytes), vswp.rows), "B")
	r.add("wire.allocs_per_row", perRow(float64(vswp.allocs-l.session.allocs), vswp.rows), "count")
	js, nd := *l.transports[transportJSON], *l.transports[transportNDJSON]
	r.add("server.json_self_ms", selfMs(js, l.session), "ms")
	r.add("server.ndjson_self_ms", selfMs(nd, l.session), "ms")
	r.add("server.writes_per_row", perRow(float64(js.writes.writes+nd.writes.writes), js.rows+nd.rows), "count")

	traced := perQuery(l.tracedOwn, time.Millisecond)
	untraced := perQuery(l.untraced.wall, time.Millisecond)
	r.add("bench.trace_overhead_ms", traced-untraced, "ms")
	r.Notes = append(r.Notes, fmt.Sprintf("mean latency on the workload's own transports: traced %.3f ms, untraced %.3f ms", traced, untraced))
}

func perRow(v float64, rows int64) float64 {
	if rows == 0 {
		return 0
	}
	return v / float64(rows)
}

// planParams binds an UNWIND alias to the list's first element, as one
// iteration of the unwound query would see it.
func planParams(q *cypher.Query, params map[string]any) map[string]any {
	if q.Unwind == nil {
		return params
	}
	out := make(map[string]any, len(params)+1)
	for k, v := range params {
		out[k] = v
	}
	if ids, ok := params[q.Unwind.Param].([]int64); ok && len(ids) > 0 {
		out[q.Unwind.Alias] = ids[0]
	}
	return out
}

func isShortest(q *cypher.Query) bool {
	for _, p := range q.Parts {
		if p.Shortest {
			return true
		}
	}
	return false
}

// streamQuery parses q and streams it.
func streamQuery(eng *engine.Engine, q Query) ([][]any, error) {
	p, err := cypher.Parse(q.Text)
	if err != nil {
		return nil, err
	}
	var rows [][]any
	err = cypher.Stream(context.Background(), eng, p, q.Params, func(_ context.Context, row []any) error {
		rows = append(rows, row)
		return nil
	})
	return rows, err
}

// runQuery parses q and runs it, returning the result and the time spent
// in cypher.RunContext.
func runQuery(eng *engine.Engine, q Query) (*cypher.Result, time.Duration, error) {
	p, err := cypher.Parse(q.Text)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	res, err := cypher.RunContext(context.Background(), eng, p, q.Params)
	return res, time.Since(start), err
}

// sessionQuery runs q in a session of its own and fetches every row.
func sessionQuery(svc *session.Service, q Query) ([][]any, error) {
	sess := svc.OpenSession("servebench")
	defer sess.Close()
	cur, err := sess.Run(context.Background(), q.Text, q.Params)
	if err != nil {
		return nil, err
	}
	var rows [][]any
	for {
		batch, more, err := cur.Fetch(0)
		rows = append(rows, batch...)
		if err != nil {
			return nil, err
		}
		if !more {
			return rows, nil
		}
	}
}
