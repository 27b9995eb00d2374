package cypher

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/graph"
)

// projector turns matched tuples into output rows for both execution
// paths: runOnce drains it over a materialized result, Stream feeds it one
// tuple at a time. RETURN expressions resolve to columns once per query.
//
// Rows are distinct by projected value (VertexSurge returns distinct
// tuples, §2.2, and a projection can map several tuples to one row). An
// aggregating RETURN groups by its plain items; a plain one is a grouping
// without aggregates, emitted as each new group appears. The key index —
// and the distinct sets of COUNT, SUM and AVG(DISTINCT) — is skipped only
// where distinctByTuple proves the keys distinct.
type projector struct {
	items   []projItem
	grouped bool
	// index maps a group's key to its position in groups; nil when rows
	// are distinct by construction.
	index  map[string]int
	groups []*group
	key    []byte // scratch buffer keys are encoded into
}

// projItem is one resolved RETURN item. seen holds the (group, argument)
// keys an aggregate has taken; nil when every tuple brings a new one.
type projItem struct {
	agg      string
	distinct bool
	args     []column
	seen     map[string]struct{}
}

// group is one output row under construction: the plain items' values and
// one accumulator per item. Sums add in first-seen order, so a query's
// floats are the same on every run.
type group struct {
	row  []any
	aggs []aggState
}

type aggState struct {
	n   int64
	sum float64
	ext any // running MIN/MAX
}

// column is one resolved expression: val computes its value for a tuple;
// key, where set, appends the value's key without boxing it.
type column struct {
	val func(tuple []graph.VertexID) (any, error)
	key func(buf []byte, tuple []graph.VertexID) []byte
}

// appendKey appends the key of the column's value for one tuple: equal
// keys mean equal values of equal type.
func (c column) appendKey(buf []byte, tuple []graph.VertexID) []byte {
	if c.key != nil {
		return c.key(buf, tuple)
	}
	v, _ := c.val(tuple) // the error surfaces when the row is built
	return appendValueKey(buf, v)
}

// int64Col is the column of an int64-valued expression f.
func int64Col(f func(tuple []graph.VertexID) int64) column {
	return column{
		val: func(t []graph.VertexID) (any, error) { return f(t), nil },
		key: func(buf []byte, t []graph.VertexID) []byte { return appendInt64Key(buf, f(t)) },
	}
}

// newProjector resolves q's RETURN items. tuples is the materialized
// result length() columns measure; a stream, which admits no length(),
// passes nil.
func newProjector(ctx context.Context, eng *engine.Engine, q *Query, b *boundQuery, params map[string]any, tuples [][]graph.VertexID) (*projector, error) {
	g := eng.Graph()
	ids, _ := g.Prop("id").(graph.Int64Column)
	lengths := map[string]map[[2]graph.VertexID]int{}
	resolve := func(e Expr) (column, error) {
		if e.IsLength {
			bp, ok := b.paths[e.PathVar]
			if !ok {
				return column{}, fmt.Errorf("cypher: length() references unknown path %q", e.PathVar)
			}
			m, ok := lengths[e.PathVar]
			if !ok {
				var err error
				if m, err = pathLengths(ctx, eng, b, bp, tuples); err != nil {
					return column{}, err
				}
				lengths[e.PathVar] = m
			}
			src, dst := b.varIdx[bp.srcVar], b.varIdx[bp.dstVar]
			return column{val: func(t []graph.VertexID) (any, error) {
				key := [2]graph.VertexID{t[src], t[dst]}
				l, ok := m[key]
				if !ok {
					return nil, fmt.Errorf("cypher: no path length for %v", key)
				}
				return int64(l), nil
			}}, nil
		}
		if idx, ok := b.varIdx[e.Var]; ok {
			if e.Prop == "" {
				// A bare variable projects the vertex's id property when
				// present, else its internal index.
				if ids != nil {
					return int64Col(func(t []graph.VertexID) int64 { return ids[t[idx]] }), nil
				}
				return int64Col(func(t []graph.VertexID) int64 { return int64(t[idx]) }), nil
			}
			switch col := g.Prop(e.Prop).(type) {
			case nil:
				return column{}, fmt.Errorf("cypher: unknown property %q", e.Prop)
			case graph.Int64Column:
				return int64Col(func(t []graph.VertexID) int64 { return col[t[idx]] }), nil
			case graph.StringColumn:
				return column{
					val: func(t []graph.VertexID) (any, error) { return col[t[idx]], nil },
					key: func(buf []byte, t []graph.VertexID) []byte { return appendStringKey(buf, keyString, col[t[idx]]) },
				}, nil
			default:
				return column{val: func(t []graph.VertexID) (any, error) { return col.Value(int(t[idx])), nil }}, nil
			}
		}
		// Not a pattern variable: maybe the UNWIND alias.
		if q.Unwind != nil && e.Var == q.Unwind.Alias {
			val, ok := params[q.Unwind.Alias]
			if !ok {
				return column{}, fmt.Errorf("cypher: unbound alias %q", e.Var)
			}
			return column{val: func([]graph.VertexID) (any, error) { return val, nil }}, nil
		}
		return column{}, fmt.Errorf("cypher: unknown variable %q", e.Var)
	}

	p := &projector{items: make([]projItem, len(q.Return))}
	var keyExprs []Expr
	for i, item := range q.Return {
		it := &p.items[i]
		it.agg, it.distinct = item.Agg, item.Distinct
		for _, a := range item.Args {
			c, err := resolve(a)
			if err != nil {
				return nil, err
			}
			it.args = append(it.args, c)
		}
		if item.Agg == "" {
			keyExprs = append(keyExprs, item.Args[0])
		} else {
			p.grouped = true
		}
	}
	if p.grouped || !b.distinctByTuple(g, keyExprs) {
		p.index = map[string]int{}
	}
	for i, item := range q.Return {
		distinctAgg := item.Agg == "count" || item.Agg == "sum" || (item.Agg == "avg" && item.Distinct)
		if distinctAgg && !b.distinctByTuple(g, append(keyExprs[:len(keyExprs):len(keyExprs)], item.Args...)) {
			p.items[i].seen = map[string]struct{}{}
		}
	}
	return p, nil
}

// distinctByTuple reports whether values of exprs taken from distinct
// tuples are themselves distinct — the single rule behind every skipped
// dedup and the COUNT(DISTINCT …) fast path. It holds when every pattern
// vertex appears among exprs as a bare variable and a bare variable
// identifies its vertex: it projects the internal index when the graph has
// no int64 id column, and the id otherwise, which identifies the vertex
// only when no two vertices share it.
func (b *boundQuery) distinctByTuple(g *graph.Graph, exprs []Expr) bool {
	covered := make([]bool, len(b.pat.Vertices))
	for _, e := range exprs {
		if idx, ok := b.varIdx[e.Var]; ok && !e.IsLength && e.Prop == "" {
			covered[idx] = true
		}
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}
	_, hasID := g.Prop("id").(graph.Int64Column)
	return !hasID || g.Int64Unique("id")
}

// drain projects a materialized result: the rows in tuple order, or one
// row per group when the query aggregates. limit > 0 stops a plain
// projection once that many rows exist (the caller passes 0 under ORDER
// BY, which needs every row).
func (p *projector) drain(tuples [][]graph.VertexID, limit int) ([][]any, error) {
	var rows [][]any
	for _, tuple := range tuples {
		row, err := p.add(tuple)
		if err != nil {
			return nil, err
		}
		if row != nil {
			rows = append(rows, row)
			if limit > 0 && len(rows) >= limit {
				break
			}
		}
	}
	if p.grouped {
		return p.finish(), nil
	}
	return rows, nil
}

// add consumes one tuple. A plain projection returns its row — a fresh
// slice the caller keeps — or nil when the row was already emitted. An
// aggregating projection folds the tuple into its group and returns nil.
func (p *projector) add(tuple []graph.VertexID) ([]any, error) {
	gi, found := len(p.groups), false
	if p.index != nil {
		p.key = p.key[:0]
		for i := range p.items {
			if p.items[i].agg == "" {
				p.key = p.items[i].args[0].appendKey(p.key, tuple)
			}
		}
		if gi, found = p.index[string(p.key)]; !found {
			gi = len(p.groups)
			p.index[string(p.key)] = gi
		}
	}
	if !found {
		row := make([]any, len(p.items))
		for i := range p.items {
			if p.items[i].agg == "" {
				v, err := p.items[i].args[0].val(tuple)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
		}
		if !p.grouped {
			return row, nil
		}
		p.groups = append(p.groups, &group{row: row, aggs: make([]aggState, len(p.items))})
	} else if !p.grouped {
		return nil, nil
	}
	return nil, p.accumulate(p.groups[gi], gi, tuple)
}

// accumulate folds one tuple into group g (position gi).
func (p *projector) accumulate(g *group, gi int, tuple []graph.VertexID) error {
	for i := range p.items {
		it, st := &p.items[i], &g.aggs[i]
		if it.agg == "" || (it.seen != nil && !p.firstSeen(it, gi, tuple)) {
			continue
		}
		if it.agg == "count" {
			st.n++
			continue
		}
		v, err := it.args[0].val(tuple)
		if err != nil {
			return err
		}
		switch it.agg {
		case "sum", "avg":
			f, err := toFloat(v)
			if err != nil {
				return err
			}
			st.sum += f
			st.n++
		case "min", "max":
			if st.n == 0 {
				st.ext, st.n = v, 1
			} else if c := compareValues(v, st.ext); (it.agg == "min" && c < 0) || (it.agg == "max" && c > 0) {
				st.ext = v
			}
		}
	}
	return nil
}

// firstSeen reports whether the tuple's argument values are new to item
// it within group gi, recording them.
func (p *projector) firstSeen(it *projItem, gi int, tuple []graph.VertexID) bool {
	p.key = binary.LittleEndian.AppendUint32(p.key[:0], uint32(gi))
	for i := range it.args {
		p.key = it.args[i].appendKey(p.key, tuple)
	}
	if _, dup := it.seen[string(p.key)]; dup {
		return false
	}
	it.seen[string(p.key)] = struct{}{}
	return true
}

// finish fills in the aggregates and returns one row per group, in
// first-seen order.
func (p *projector) finish() [][]any {
	rows := make([][]any, len(p.groups))
	for gi, g := range p.groups {
		for i, it := range p.items {
			st := g.aggs[i]
			switch it.agg {
			case "count":
				g.row[i] = st.n
			case "sum":
				g.row[i] = st.sum
			case "avg":
				if st.n > 0 {
					g.row[i] = st.sum / float64(st.n)
				} else {
					g.row[i] = 0.0
				}
			case "min", "max":
				g.row[i] = st.ext
			}
		}
		rows[gi] = g.row
	}
	return rows
}

// pathLengths computes the minimal walk length for every (src, dst) pair of
// a path variable's relationship that appears in the result tuples.
func pathLengths(ctx context.Context, eng *engine.Engine, b *boundQuery, bp boundPath, tuples [][]graph.VertexID) (map[[2]graph.VertexID]int, error) {
	srcIdx, dstIdx := b.varIdx[bp.srcVar], b.varIdx[bp.dstVar]
	srcSet := map[graph.VertexID]bool{}
	for _, t := range tuples {
		srcSet[t[srcIdx]] = true
	}
	sources := make([]graph.VertexID, 0, len(srcSet))
	for v := range srcSet {
		sources = append(sources, v)
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	rowOf := make(map[graph.VertexID]int, len(sources))
	for i, v := range sources {
		rowOf[v] = i
	}
	r, err := eng.ExpandContext(ctx, sources, bp.d, true)
	if err != nil {
		return nil, err
	}
	out := map[[2]graph.VertexID]int{}
	for _, t := range tuples {
		key := [2]graph.VertexID{t[srcIdx], t[dstIdx]}
		if _, done := out[key]; done {
			continue
		}
		if l, ok := r.MinLength(rowOf[key[0]], key[1]); ok {
			out[key] = l
		}
	}
	return out, nil
}

// Key tags: one per value type, so equal keys imply equal types.
const (
	keyNil byte = iota
	keyFalse
	keyTrue
	keyInt64
	keyInt
	keyFloat64
	keyString
	keyList
	keyOther
)

func appendInt64Key(buf []byte, v int64) []byte { return appendWordKey(buf, keyInt64, uint64(v)) }

func appendWordKey(buf []byte, tag byte, w uint64) []byte {
	return binary.LittleEndian.AppendUint64(append(buf, tag), w)
}

func appendStringKey(buf []byte, tag byte, s string) []byte {
	buf = binary.AppendUvarint(append(buf, tag), uint64(len(s)))
	return append(buf, s...)
}

// appendValueKey appends the key of any projected value. Every encoding is
// self-delimiting, so concatenated keys stay exact.
func appendValueKey(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, keyNil)
	case bool:
		if x {
			return append(buf, keyTrue)
		}
		return append(buf, keyFalse)
	case int64:
		return appendInt64Key(buf, x)
	case int:
		return appendWordKey(buf, keyInt, uint64(x))
	case float64:
		return appendWordKey(buf, keyFloat64, math.Float64bits(x))
	case string:
		return appendStringKey(buf, keyString, x)
	case []any:
		buf = appendWordKey(buf, keyList, uint64(len(x)))
		for _, e := range x {
			buf = appendValueKey(buf, e)
		}
		return buf
	default:
		// Maps and typed slices reach a row only as UNWIND bindings; they
		// compare by their Go-syntax rendering, which carries the type.
		return appendStringKey(buf, keyOther, fmt.Sprintf("%#v", x))
	}
}

func toFloat(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case int64:
		return float64(x), nil
	case int:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("cypher: SUM over non-numeric value %T", v)
	}
}

// orderAndLimit applies ORDER BY and LIMIT to a result in place.
func orderAndLimit(res *Result, q *Query) error {
	if len(q.OrderBy) > 0 {
		idxs := make([]int, len(q.OrderBy))
		for i, key := range q.OrderBy {
			idx := -1
			for ci, col := range res.Columns {
				if col == key.Ref {
					idx = ci
					break
				}
			}
			if idx < 0 {
				return fmt.Errorf("cypher: ORDER BY references unknown column %q", key.Ref)
			}
			idxs[i] = idx
		}
		sort.SliceStable(res.Rows, func(a, b int) bool {
			for i, idx := range idxs {
				c := compareValues(res.Rows[a][idx], res.Rows[b][idx])
				if c == 0 {
					continue
				}
				if q.OrderBy[i].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return nil
}

func compareValues(a, b any) int {
	af, aerr := toFloat(a)
	bf, berr := toFloat(b)
	if aerr == nil && berr == nil {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	as, bs := fmt.Sprint(a), fmt.Sprint(b)
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	default:
		return 0
	}
}
