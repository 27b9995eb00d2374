// Package engine is VertexSurge's query execution engine: it composes the
// planner, the VExpand operator, and the MIntersect operator into complete
// VLGPM query execution (§3, §5), with the per-stage timing breakdown the
// paper reports in Figure 8.
//
// The generic entry point is Match, which executes an arbitrary
// variable-length graph pattern. The twelve evaluation queries of §6.2
// (social cases 1–5, bank cases 6–7, FinBench cases 8–12) are provided as
// methods in cases.go.
package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bitmatrix"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/mintersect"
	"repro/internal/pattern"
	"repro/internal/planner"
	"repro/internal/telemetry"
	"repro/internal/vexpand"
)

// DefaultCacheBytes is the reachability-matrix cache size production
// surfaces (vertexsurge.DB, vsserve) enable by default: 64 MiB holds the
// working set of a few dozen mid-size expansions.
const DefaultCacheBytes int64 = 64 << 20

// Options configures an Engine.
type Options struct {
	// Workers bounds expand parallelism; 0 = GOMAXPROCS. It bounds both
	// intra-operator workers (stack partitioning) and the scheduler's
	// concurrent independent operators.
	Workers int
	// Kernel pins the VExpand kernel; Auto by default.
	Kernel vexpand.Kernel
	// CacheBytes bounds the engine-level reachability-matrix cache
	// shared across queries. 0 disables the cache (the conservative
	// default: benchmarks and tests measure real expansions); production
	// callers pass DefaultCacheBytes or their own budget.
	CacheBytes int64
	// MemoryBudget caps live intermediate bytes — matrices under
	// expansion, cache residency, join-time clones, spill buffers —
	// across all concurrent queries. 0 = unlimited (still metered).
	MemoryBudget int64
}

// Engine executes VLGPM queries against one graph.
type Engine struct {
	g     *graph.Graph
	opts  Options
	acct  *exec.Accountant
	cache *exec.MatrixCache
	// stats, when set, receives per-operator est-vs-actual observations
	// from every completed Match (see stats.go). Atomic so the sink can be
	// attached while queries are already running.
	stats atomic.Pointer[StatsSink]
}

// New returns an engine over g.
func New(g *graph.Graph, opts Options) *Engine {
	e := &Engine{g: g, opts: opts}
	e.acct = exec.NewAccountant(opts.MemoryBudget)
	if opts.CacheBytes > 0 {
		e.cache = exec.NewMatrixCache(opts.CacheBytes, e.acct)
		// Under budget pressure, cached matrices yield to live queries.
		e.acct.OnPressure = e.cache.EvictBytes
	}
	return e
}

// Graph returns the underlying graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// CacheStats reports the engine-level matrix cache's resident entries and
// bytes (both zero when the cache is disabled).
func (e *Engine) CacheStats() (entries int, bytes int64) {
	return e.cache.Len(), e.cache.Bytes()
}

// MemoryInUse reports the bytes currently reserved against the engine's
// memory budget (live intermediates plus cache residency).
func (e *Engine) MemoryInUse() int64 { return e.acct.InUse() }

// MemoryLimit reports the configured memory budget (0 = unlimited).
func (e *Engine) MemoryLimit() int64 { return e.acct.Limit() }

// Accountant exposes the engine's shared memory accountant so co-resident
// subsystems (the telemetry time-series ring) can meter their footprint in
// the same budget as matrices, cache residency, and spill buffers.
func (e *Engine) Accountant() *exec.Accountant { return e.acct }

// CacheLimit reports the configured matrix-cache byte bound (0 = off).
func (e *Engine) CacheLimit() int64 { return e.opts.CacheBytes }

// SetStatsSink attaches (or, with nil, detaches) the cardinality-statistics
// sink every completed Match observes into. Safe to call concurrently with
// running queries.
func (e *Engine) SetStatsSink(s *StatsSink) { e.stats.Store(s) }

// Timings is the per-stage breakdown of one query (Figure 8's components).
// Stage times are summed across operators; with the scheduler running
// independent expands concurrently, Expand may exceed the wall-clock share
// it occupies inside Total (CPU time attributed, not elapsed time).
type Timings struct {
	// Scan is candidate scanning and planning.
	Scan time.Duration
	// Expand is VExpand's frontier–edge multiplication time.
	Expand time.Duration
	// UpdateVisit is visited-set maintenance (SHORTEST determiners only).
	UpdateVisit time.Duration
	// Intersect is MIntersect (Generic Join) time.
	Intersect time.Duration
	// Aggregate is grouping/sorting/summing time.
	Aggregate time.Duration
	// Total is end-to-end wall time.
	Total time.Duration
}

// Add accumulates another breakdown into t.
func (t *Timings) Add(o Timings) {
	t.Scan += o.Scan
	t.Expand += o.Expand
	t.UpdateVisit += o.UpdateVisit
	t.Intersect += o.Intersect
	t.Aggregate += o.Aggregate
	t.Total += o.Total
}

// Other returns time not attributed to a named stage.
func (t Timings) Other() time.Duration {
	other := t.Total - t.Scan - t.Expand - t.UpdateVisit - t.Intersect - t.Aggregate
	if other < 0 {
		return 0
	}
	return other
}

// MatchOptions configures Match.
type MatchOptions struct {
	// CountOnly skips tuple materialization (§5.1's counting fast path).
	CountOnly bool
	// Limit bounds materialized tuples; 0 = unlimited.
	Limit int64
	// Order forces the join order (pattern-vertex index per position),
	// bypassing the planner's choice — for planner ablation.
	Order []int
}

// MatchResult is the output of Match.
type MatchResult struct {
	// Names lists the pattern vertex names in tuple component order
	// (pattern declaration order, not join order).
	Names []string
	// Tuples are the distinct matches; Tuples[i][k] binds Names[k].
	Tuples [][]graph.VertexID
	// Count is the number of distinct matches.
	Count int64
	// ExpandStats aggregates the VExpand statistics across all pattern
	// edges (Table 2's intermediate-result accounting).
	ExpandStats vexpand.Stats
	// Timings is the per-stage breakdown.
	Timings Timings
	// Plan is the physical plan the match executed (candidate scans, join
	// order, per-edge estimates). EXPLAIN ANALYZE joins its estimates
	// against the actual cardinalities recorded in the span tree.
	Plan *planner.Plan
}

// Match executes a VLGPM pattern and returns the distinct matched vertex
// tuples (Definition 3). Matching uses walk semantics for ANY determiners
// (§2.2) and requires the match to be a bijection.
func (e *Engine) Match(pat *pattern.Pattern, opts MatchOptions) (*MatchResult, error) {
	return e.MatchContext(context.Background(), pat, opts)
}

// MatchContext is Match with trace propagation: when ctx carries an active
// trace (internal/telemetry), execution records one span per operator call
// — "plan" for the planner build, one "expand" per planned edge (with
// kernel, source count, stack count, matrix bytes, and memo hit/miss),
// "intersect" for the Generic Join, and "aggregate" for tuple reordering.
// Every completed Match also feeds the per-stage latency histograms and
// expand matrix byte counter of the default metrics registry.
func (e *Engine) MatchContext(ctx context.Context, pat *pattern.Pattern, opts MatchOptions) (*MatchResult, error) {
	return e.match(ctx, pat, opts, e.collect(opts))
}

// MatchForEach runs the pattern and streams every distinct matched tuple
// to fn, in pattern declaration order, without materializing the result
// set. The tuple slice is reused between calls — copy it to retain it.
// Streaming runs the join serially (no seed partitioning), but independent
// expands still schedule concurrently.
func (e *Engine) MatchForEach(pat *pattern.Pattern, fn func(tuple []graph.VertexID)) error {
	return e.MatchForEachOpts(context.Background(), pat, MatchOptions{}, fn)
}

// MatchForEachOpts is MatchForEach with trace propagation (see
// MatchContext for the span model) honoring MatchOptions: Order forces the
// join order (planner ablation) and Limit stops the stream after that many
// tuples. CountOnly is meaningless when streaming (fn receives the tuples)
// and is ignored. A stream runs the same pipeline as Match, so it feeds the
// metrics registry, the query registry's phases and the stats sink alike.
func (e *Engine) MatchForEachOpts(ctx context.Context, pat *pattern.Pattern, opts MatchOptions, fn func(tuple []graph.VertexID)) error {
	_, err := e.match(ctx, pat, opts, stream(opts, fn))
	return err
}

// joinFunc consumes the pipeline's join, the one step in which Match and
// MatchForEach differ. It runs the join over in — or, for a single-vertex
// pattern (in == nil), takes the candidates as the matches — and records
// Count, Tuples and the join's stage timings in res.
type joinFunc func(ctx context.Context, plan *planner.Plan, in *mintersect.Input, res *MatchResult) error

// match is the one execution pipeline behind Match and MatchForEach:
// plan → registry phases → lower → DAG → assemble → join → recordMatch →
// stats sink.
func (e *Engine) match(ctx context.Context, pat *pattern.Pattern, opts MatchOptions, join joinFunc) (*MatchResult, error) {
	start := time.Now()
	qi := telemetry.CurrentQuery(ctx)
	// With a stats sink attached, wrap the match in its own span subtree so
	// the est-vs-actual join sees a complete set of operator actuals at
	// return — whether or not the caller is already tracing.
	sink := e.stats.Load()
	var ssp *telemetry.Span
	if sink != nil {
		ctx, ssp = telemetry.StartSpan(ctx, "match")
		if ssp == nil {
			ctx, ssp = telemetry.NewTrace(ctx, "match")
		}
	}
	res := &MatchResult{}
	for _, v := range pat.Vertices {
		res.Names = append(res.Names, v.Name)
	}

	qi.SetPhase(telemetry.PhasePlan)
	t0 := time.Now()
	_, psp := telemetry.StartSpan(ctx, "plan")
	var plan *planner.Plan
	var err error
	if opts.Order != nil {
		plan, err = planner.BuildOrdered(e.g, pat, opts.Order)
	} else {
		plan, err = planner.Build(e.g, pat)
	}
	if err != nil {
		psp.End()
		ssp.End()
		return nil, err
	}
	psp.SetInt("vertices", int64(len(pat.Vertices)))
	psp.SetInt("edges", int64(len(plan.Edges)))
	psp.End()
	res.Plan = plan
	res.Timings.Scan = time.Since(t0)
	// Planning runs on the caller's goroutine, outside the scheduler's
	// operator boundaries — attribute it here.
	qi.AddCPUNanos(int64(res.Timings.Scan))

	qi.SetPhase(telemetry.PhaseExecute)
	if err := e.execute(ctx, plan, len(pat.Vertices), join, res); err != nil {
		ssp.End()
		return nil, err
	}
	res.Timings.Total = time.Since(start)
	e.recordMatch(res)
	e.observeStats(sink, ssp, qi, pat, res)
	return res, nil
}

// execute lowers the plan into its physical-operator DAG and schedules it
// — independent expands run concurrently, bounded by Options.Workers —
// then assembles the join input and hands it to join on this goroutine.
func (e *Engine) execute(ctx context.Context, plan *planner.Plan, n int, join joinFunc, res *MatchResult) error {
	qc := exec.NewQueryContext(ctx, e.acct, e.opts.Workers)
	var in *mintersect.Input
	if n > 1 {
		expandOps, dag := e.lowerExpands(plan)
		if err := dag.Run(qc); err != nil {
			return err
		}
		collectExpandStats(res, expandOps)
		var cloned int64
		var err error
		in, cloned, err = exec.AssembleJoin(qc, plan, expandOps)
		defer e.acct.Release(cloned)
		if err != nil {
			return err
		}
	}
	t0 := time.Now()
	err := join(ctx, plan, in, res)
	// The join runs on this goroutine, outside the scheduler's operator
	// boundaries — attribute its busy time here.
	qc.Query().AddCPUNanos(int64(time.Since(t0)))
	return err
}

// collect is Match's join consumer: the seed-partitioned parallel join,
// then the reorder of its join-order tuples into declaration order.
func (e *Engine) collect(opts MatchOptions) joinFunc {
	return func(ctx context.Context, plan *planner.Plan, in *mintersect.Input, res *MatchResult) error {
		if in == nil {
			// A single-vertex pattern has no join to parallelize: collect
			// its matches through the stream consumer.
			return stream(opts, func(tuple []graph.VertexID) {
				if !opts.CountOnly {
					res.Tuples = append(res.Tuples, []graph.VertexID{tuple[0]})
				}
			})(ctx, plan, in, res)
		}
		t0 := time.Now()
		jr, err := mintersect.RunContext(ctx, in, mintersect.Options{
			CountOnly: opts.CountOnly,
			Limit:     opts.Limit,
			Workers:   e.opts.Workers,
		})
		if err != nil {
			return err
		}
		res.Timings.Intersect = time.Since(t0)

		t1 := time.Now()
		_, sp := telemetry.StartSpan(ctx, "aggregate")
		res.Count = jr.Count
		if !opts.CountOnly {
			// The join's tuples are private copies: reorder them in place.
			buf := make([]graph.VertexID, len(plan.Order))
			for _, tup := range jr.Tuples {
				for pos, v := range tup {
					buf[plan.Order[pos]] = v
				}
				copy(tup, buf)
			}
			res.Tuples = jr.Tuples
		}
		sp.SetInt("tuples", res.Count)
		sp.End()
		telemetry.CurrentQuery(ctx).AddRows(res.Count)
		res.Timings.Aggregate = time.Since(t1)
		return nil
	}
}

// stream is MatchForEach's join consumer: the serial join, each tuple
// reordered into declaration order and handed to fn as it is found.
func stream(opts MatchOptions, fn func(tuple []graph.VertexID)) joinFunc {
	return func(ctx context.Context, plan *planner.Plan, in *mintersect.Input, res *MatchResult) error {
		// Rows count live, per delivered tuple, so SHOW QUERIES and
		// /debug/queries report a streaming query's progress while the
		// client is still fetching (fn may block on transport backpressure
		// between tuples).
		qi := telemetry.CurrentQuery(ctx)
		buf := make([]graph.VertexID, len(plan.Order))
		if in == nil {
			// Single-vertex pattern: the candidates are the matches.
			for _, v := range plan.CandList[0] {
				if opts.Limit > 0 && res.Count >= opts.Limit {
					break
				}
				buf[0] = v
				fn(buf)
				qi.AddRows(1)
				res.Count++
			}
			return nil
		}
		t0 := time.Now()
		var jr mintersect.Result
		err := mintersect.ForEachContext(ctx, in, mintersect.Options{Limit: opts.Limit}, func(tuple []graph.VertexID) {
			for pos, v := range tuple {
				buf[plan.Order[pos]] = v
			}
			fn(buf)
			qi.AddRows(1)
		}, &jr)
		res.Timings.Intersect = time.Since(t0)
		res.Count = jr.Count
		if err != nil {
			return err
		}
		// The reorder ran inside the join; its span carries the delivered
		// tuple count so EXPLAIN ANALYZE and the stats sink see the same
		// operators for a stream as for a materialized match.
		_, sp := telemetry.StartSpan(ctx, "aggregate")
		sp.SetInt("tuples", res.Count)
		sp.End()
		return nil
	}
}

// observeStats ends the stats span subtree and appends the match's
// per-operator est-vs-actual records to the attached sink (no-op without
// one). Sink write failures never fail the query.
func (e *Engine) observeStats(sink *StatsSink, ssp *telemetry.Span, qi *telemetry.QueryInfo, pat *pattern.Pattern, res *MatchResult) {
	ssp.End()
	if sink == nil {
		return
	}
	_ = sink.Observe(qi.ID(), e.g, pat, res, ssp.Snapshot())
}

// lowerExpands builds one ExpandOp per distinct expansion of the plan
// (planner.Plan.Operators' dedup — the §2.3.2 symmetry memo as DAG
// construction) and returns, per planned edge, the op serving it.
func (e *Engine) lowerExpands(plan *planner.Plan) (perEdge []*exec.ExpandOp, dag *exec.DAG) {
	dag = exec.NewDAG()
	perEdge = make([]*exec.ExpandOp, len(plan.Edges))
	for _, spec := range plan.Operators() {
		if spec.Kind != "expand" {
			continue
		}
		pe := &plan.Edges[spec.Edges[0]]
		sources := plan.CandList[pe.ExpandFrom]
		op := &exec.ExpandOp{
			Graph:   e.g,
			Sources: sources,
			D:       pe.D,
			Opts: vexpand.Options{
				Kernel:  e.opts.Kernel,
				Workers: e.opts.Workers,
				Budget:  e.acct,
			},
			Cache: e.cache,
			From:  pe.ExpandFrom,
		}
		if e.cache != nil {
			op.Key = exec.NewCacheKey(e.g.Epoch(), pe.D, sources)
		}
		for _, ei := range spec.Edges {
			op.Edges = append(op.Edges, plan.Edges[ei].PatternEdge)
			perEdge[ei] = op
		}
		dag.Add(op)
	}
	return perEdge, dag
}

// collectExpandStats accumulates stats and stage timings from the expand
// operators that actually ran (cache hits did no work in this query; the
// dedup of symmetric edges already counts each distinct expansion once —
// the serial engine's ExpandStats semantics, preserved).
func collectExpandStats(res *MatchResult, ops []*exec.ExpandOp) {
	seen := make(map[*exec.ExpandOp]bool, len(ops))
	for _, op := range ops {
		if op == nil || seen[op] || op.CacheState == "hit" || op.Result == nil {
			continue
		}
		seen[op] = true
		r := op.Result
		res.ExpandStats.Steps += r.Stats.Steps
		res.ExpandStats.IntermediateResults += r.Stats.IntermediateResults
		res.ExpandStats.MatrixBytes += r.Stats.MatrixBytes
		// Attribute the whole operator call (matrix allocation included)
		// to the Expand stage, minus the separately tracked visited-set
		// maintenance.
		res.Timings.Expand += op.Wall - r.Stats.UpdateVisitTime
		res.Timings.UpdateVisit += r.Stats.UpdateVisitTime
	}
}

// recordMatch feeds one completed match into the metrics registry.
func (e *Engine) recordMatch(res *MatchResult) {
	t := res.Timings
	telemetry.ObserveStages(t.Scan, t.Expand, t.UpdateVisit, t.Intersect, t.Aggregate, t.Total)
	if res.ExpandStats.MatrixBytes > 0 {
		telemetry.ExpandMatrixBytes.Add(res.ExpandStats.MatrixBytes)
	}
}

// Expand exposes the VExpand operator directly: reachability from sources
// under d, with the engine's kernel and worker settings.
func (e *Engine) Expand(sources []graph.VertexID, d pattern.Determiner, keepPerStep bool) (*vexpand.Result, error) {
	return e.ExpandContext(context.Background(), sources, d, keepPerStep)
}

// ExpandContext is Expand with cancellation and trace propagation: the
// expansion aborts between steps when ctx is done, and an active trace
// records the vexpand span tree.
func (e *Engine) ExpandContext(ctx context.Context, sources []graph.VertexID, d pattern.Determiner, keepPerStep bool) (*vexpand.Result, error) {
	return vexpand.ExpandContext(ctx, e.g, sources, d, vexpand.Options{
		Kernel:      e.opts.Kernel,
		Workers:     e.opts.Workers,
		KeepPerStep: keepPerStep,
	})
}

// candidateBitmap evaluates a pattern vertex against the graph.
func (e *Engine) candidateBitmap(v pattern.Vertex) (*bitmatrix.Bitmap, error) {
	return pattern.Candidates(e.g, v)
}

// vertexByID resolves an int64 "id" property to a vertex.
func (e *Engine) vertexByID(id int64) (graph.VertexID, error) {
	v, ok := e.g.FindByInt64("id", id)
	if !ok {
		return 0, fmt.Errorf("engine: no vertex with id %d", id)
	}
	return v, nil
}

// Explain plans pat and renders the plan (§5.2's decisions: candidate
// sizes, join order, expansion orientations and estimates) without
// executing it.
func (e *Engine) Explain(pat *pattern.Pattern) (string, error) {
	plan, err := planner.Build(e.g, pat)
	if err != nil {
		return "", err
	}
	return plan.Explain(pat), nil
}
