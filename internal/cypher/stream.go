package cypher

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

// ErrNotStreamable reports that a query cannot execute row-at-a-time and
// must go through the materializing path (RunContext): aggregation, ORDER
// BY, UNWIND, shortestPath, length() projections, and the EXPLAIN/PROFILE
// variants all need the complete result (or a different execution shape)
// before the first output row exists.
var ErrNotStreamable = errors.New("cypher: query is not streamable")

// errStreamLimit is the internal sentinel the streaming driver uses to stop
// the engine once LIMIT rows have been emitted; it never escapes Stream.
var errStreamLimit = errors.New("cypher: stream limit reached")

// Streamable reports whether q can execute row-at-a-time with constant
// server-side result memory: a plain projection of pattern variables (bare
// or property accesses) with no aggregation, ORDER BY, UNWIND,
// shortestPath, or length() expressions, and not an EXPLAIN/PROFILE
// variant. LIMIT is fine — the stream stops early. A streamed query
// returns the same rows as RunContext: rows are distinct by projected
// value, and only a projection that names every pattern vertex as a bare
// variable, on a graph whose id values are unique (or that has no id
// column), skips the dedup state and streams in constant memory.
func Streamable(q *Query) bool {
	if q.Explain || q.Analyze || q.Profile || q.Unwind != nil || len(q.OrderBy) > 0 {
		return false
	}
	for _, p := range q.Parts {
		if p.Shortest {
			return false
		}
	}
	if len(q.Return) == 0 {
		return false
	}
	for _, item := range q.Return {
		if item.Agg != "" {
			return false
		}
		for _, a := range item.Args {
			if a.IsLength {
				return false
			}
		}
	}
	return true
}

// Columns returns the output column names of q — available before
// execution, so a streaming transport can announce the result shape ahead
// of the first row.
func Columns(q *Query) []string {
	cols := make([]string, len(q.Return))
	for i, item := range q.Return {
		cols[i] = item.Column()
	}
	return cols
}

// Stream executes a streamable query row-at-a-time: every projected row is
// passed to emit, in join order, without materializing the result set. Rows
// pass through the same projector as RunContext's, so they are distinct by
// projected value (VertexSurge queries return distinct rows, §2.2). The one
// dedup rule: dedup is skipped only when every pattern vertex appears as a
// bare variable and bare variables are unique per vertex — the graph has no
// int64 id column, or no two vertices share an id. Rows are then distinct
// by construction, no dedup state is kept, and server-side memory is
// constant in the result cardinality.
//
// Stream has full registry/metrics parity with RunContext: it counts into
// vs_queries_total/failed/in_flight, registers with
// telemetry.DefaultQueries (visible in SHOW QUERIES and /debug/queries with
// live row counts, killable by id), and lands in the history ring on
// completion with the emitted row count.
//
// emit returning an error stops the stream and surfaces that error; emit
// may block, but must watch the context it receives — that context is the
// registered query context, canceled by KILL, by the caller's deadline, and
// by Stream's own unwinding, so a blocked emit (a full cursor buffer with no
// client fetching) unblocks the moment the query dies.
func Stream(ctx context.Context, eng *engine.Engine, q *Query, params map[string]any, emit func(ctx context.Context, row []any) error) (err error) {
	if !Streamable(q) {
		return ErrNotStreamable
	}
	if verr := q.validate(); verr != nil {
		return verr
	}

	telemetry.QueriesInFlight.Add(1)
	defer telemetry.QueriesInFlight.Add(-1)
	defer telemetry.QueriesTotal.Inc()

	qctx, cancel := context.WithCancel(ctx)
	defer cancel()
	qi := telemetry.DefaultQueries.Register(q.Raw, telemetry.RequestIDFromContext(ctx), cancel)
	ctx = telemetry.WithQuery(qctx, qi)

	var rows int64
	defer func() {
		// Runs during panic unwinding too, mirroring RunContext: the registry
		// entry moves to history instead of leaking as forever-running.
		if r := recover(); r != nil {
			telemetry.DefaultQueries.Complete(qi, rows, fmt.Errorf("panic: %v", r))
			panic(r)
		}
		if err != nil {
			telemetry.QueriesFailed.Inc()
		}
		telemetry.DefaultQueries.Complete(qi, rows, err)
	}()

	b, err := bind(q, params)
	if err != nil {
		return err
	}
	proj, err := newProjector(ctx, eng, q, b, params, nil)
	if err != nil {
		return err
	}
	limit := int64(q.Limit)
	var stopErr error
	runErr := eng.MatchForEachOpts(ctx, b.pat, engine.MatchOptions{}, func(tuple []graph.VertexID) {
		if stopErr != nil {
			return // unwinding: the engine notices the canceled ctx shortly
		}
		row, perr := proj.add(tuple)
		if perr != nil {
			stopErr = perr
			cancel()
			return
		}
		if row == nil {
			return // already emitted
		}
		if eerr := emit(ctx, row); eerr != nil {
			stopErr = eerr
			cancel()
			return
		}
		rows++
		if limit > 0 && rows >= limit {
			stopErr = errStreamLimit
			cancel()
		}
	})
	switch {
	case stopErr == errStreamLimit:
		return nil // LIMIT satisfied; the induced cancellation is not a failure
	case stopErr != nil:
		return stopErr
	default:
		return runErr
	}
}
