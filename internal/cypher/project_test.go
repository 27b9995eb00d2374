package cypher

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

// dupIDEngine serves a graph whose vertices 0 and 1 share id 7:
// ids 7, 7, 8, 9 and edges 0→2, 1→2, 2→3.
func dupIDEngine(t *testing.T) *engine.Engine {
	t.Helper()
	b := graph.NewBuilder(4)
	for v := 0; v < 4; v++ {
		b.SetLabel(graph.VertexID(v), "P")
	}
	b.AddEdge("k", 0, 2)
	b.AddEdge("k", 1, 2)
	b.AddEdge("k", 2, 3)
	b.SetProp("id", graph.Int64Column{7, 7, 8, 9})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(g, engine.Options{})
}

func sortedRows(rows [][]any) [][]any {
	out := append([][]any(nil), rows...)
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// TestDuplicateIDRowsDistinct pins the one dedup rule: rows are distinct
// by projected value, so two vertices sharing an id collapse into one row
// on the materialized path, the stream and the COUNT(DISTINCT …) fast path
// alike.
func TestDuplicateIDRowsDistinct(t *testing.T) {
	e := dupIDEngine(t)
	want := [][]any{{int64(7), int64(8)}, {int64(8), int64(9)}}

	res := run(t, e, `MATCH (a:P)-[:k]->(b:P) RETURN a, b`, nil)
	if got := sortedRows(res.Rows); !reflect.DeepEqual(got, want) {
		t.Fatalf("RunContext rows = %v, want %v", got, want)
	}

	q, err := Parse(`MATCH (a:P)-[:k]->(b:P) RETURN a, b`)
	if err != nil {
		t.Fatal(err)
	}
	var streamed [][]any
	if err := Stream(context.Background(), e, q, nil, func(_ context.Context, row []any) error {
		streamed = append(streamed, row)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := sortedRows(streamed); !reflect.DeepEqual(got, want) {
		t.Fatalf("Stream rows = %v, want %v", got, want)
	}

	count := run(t, e, `MATCH (a:P)-[:k]->(b:P) RETURN COUNT(DISTINCT a, b)`, nil)
	if !reflect.DeepEqual(count.Rows, [][]any{{int64(2)}}) {
		t.Fatalf("COUNT(DISTINCT a, b) = %v, want [[2]]", count.Rows)
	}
}

// TestStreamReachesExecutePhase pins that a streamed query's registry
// entry moves through the engine's phases while its rows are emitted.
func TestStreamReachesExecutePhase(t *testing.T) {
	e := socialEngine(t)
	q, err := Parse(`MATCH (p:SIGA)-[:knows]-(q:SIGB) RETURN p, q LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	phase := ""
	err = Stream(context.Background(), e, q, nil, func(ctx context.Context, _ []any) error {
		id := telemetry.CurrentQuery(ctx).ID()
		active, _ := telemetry.DefaultQueries.Snapshot()
		for _, s := range active {
			if s.ID == id {
				phase = s.Phase
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if phase != telemetry.PhaseExecute.String() {
		t.Fatalf("phase while streaming = %q, want %q", phase, telemetry.PhaseExecute)
	}
}

// TestSumDistinctDeterministic pins SUM/AVG(DISTINCT …) to one
// accumulation order: over 1e16, 1 and -1e16 any two orders give different
// float results, so every run must return the same bits.
func TestSumDistinctDeterministic(t *testing.T) {
	b := graph.NewBuilder(4)
	b.SetLabel(0, "A")
	for v := 1; v < 4; v++ {
		b.SetLabel(graph.VertexID(v), "B")
		b.AddEdge("k", 0, graph.VertexID(v))
	}
	b.SetProp("w", graph.Float64Column{0, 1e16, 1, -1e16})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(g, engine.Options{})
	const src = `MATCH (a:A)-[:k]->(b:B) RETURN SUM(DISTINCT b.w), AVG(DISTINCT b.w)`
	var first []uint64
	for i := 0; i < 20; i++ {
		row := run(t, e, src, nil).Rows[0]
		bits := []uint64{math.Float64bits(row[0].(float64)), math.Float64bits(row[1].(float64))}
		if first == nil {
			first = bits
		} else if !reflect.DeepEqual(bits, first) {
			t.Fatalf("run %d: SUM, AVG bits %x, first run %x", i, bits, first)
		}
	}
}
