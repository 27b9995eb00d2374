package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/cypher"
	"repro/internal/engine"
)

// shape is what the answer check needs to know about a query's result
// order: the ORDER BY key column (-1 when unordered) and the LIMIT (0 when
// unlimited).
type shape struct {
	keyCol int
	limit  int
}

func shapeOf(q *cypher.Query) shape {
	sh := shape{keyCol: -1, limit: q.Limit}
	if len(q.OrderBy) > 0 {
		for i, col := range cypher.Columns(q) {
			if col == q.OrderBy[0].Ref {
				sh.keyCol = i
			}
		}
	}
	return sh
}

// answer is a comparable digest of a result. Rows are compared as a
// multiset through an order-independent hash. When ORDER BY … LIMIT cuts
// through a run of equal keys, which of the tied rows survive is not
// determined, so the rows carrying the last key are left out of the
// multiset and only the ordered key values are compared for them.
type answer struct {
	Rows  int
	Sum1  uint64
	Sum2  uint64
	Keys  []string
	Error string
}

// equal reports whether two answers agree. A failed query agrees with
// nothing.
func (a answer) equal(b answer) bool {
	if a.Error != "" || b.Error != "" {
		return false
	}
	return a.Rows == b.Rows && a.Sum1 == b.Sum1 && a.Sum2 == b.Sum2 && slices.Equal(a.Keys, b.Keys)
}

func (a answer) String() string {
	if a.Error != "" {
		return "error: " + a.Error
	}
	return fmt.Sprintf("%d rows, digest %016x%016x", a.Rows, a.Sum1, a.Sum2)
}

func digest(sh shape, rows [][]any) answer {
	a := answer{Rows: len(rows)}
	var boundary string
	cut := sh.keyCol >= 0 && sh.limit > 0 && len(rows) == sh.limit
	if sh.keyCol >= 0 {
		a.Keys = make([]string, len(rows))
		for i, r := range rows {
			if sh.keyCol < len(r) {
				a.Keys[i] = string(appendCanonical(nil, r[sh.keyCol]))
			}
		}
		if len(rows) > 0 {
			boundary = a.Keys[len(rows)-1]
		}
	}
	var buf []byte
	for i, r := range rows {
		if cut && a.Keys[i] == boundary {
			continue
		}
		buf = buf[:0]
		for _, v := range r {
			buf = appendCanonical(buf, v)
		}
		x := fnv64a(buf)
		a.Sum1 += mix(x)
		a.Sum2 += mix(x ^ 0x9e3779b97f4a7c15)
	}
	return a
}

func fnv64a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// appendCanonical encodes a result value so that every transport's
// decoding of it encodes identically: JSON delivers integers as float64,
// the wire protocol and the engine as int64.
func appendCanonical(buf []byte, v any) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, 'n', ';')
	case int64:
		buf = append(buf, 'i')
		buf = strconv.AppendInt(buf, x, 10)
	case float64:
		// Ten significant digits: SUM adds a map's values in iteration
		// order, so the last bits of a float aggregate vary from run to run.
		r, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 10, 64), 64) // formatted floats parse
		if r == math.Trunc(r) && math.Abs(r) < 1<<53 {
			buf = append(buf, 'i')
			buf = strconv.AppendInt(buf, int64(r), 10)
		} else {
			buf = append(buf, 'f')
			buf = strconv.AppendFloat(buf, r, 'g', -1, 64)
		}
	case string:
		buf = append(buf, 's')
		buf = strconv.AppendInt(buf, int64(len(x)), 10)
		buf = append(buf, ':')
		buf = append(buf, x...)
	case bool:
		buf = append(buf, 'b')
		buf = strconv.AppendBool(buf, x)
	default:
		buf = fmt.Appendf(buf, "?%T:%v", v, v)
	}
	return append(buf, ';')
}

// referenceFunc computes the expected answer of q on eng.
type referenceFunc func(eng *engine.Engine, q Query) (answer, error)

// referenceAnswer runs q through cypher.RunContext. A query that fails
// yields an answer carrying the error, which no received result matches.
func referenceAnswer(eng *engine.Engine, q Query) (answer, error) {
	parsed, err := cypher.Parse(q.Text)
	if err != nil {
		return answer{Error: err.Error()}, nil
	}
	res, err := cypher.RunContext(context.Background(), eng, parsed, q.Params)
	if err != nil {
		return answer{Error: err.Error()}, nil
	}
	return digest(shapeOf(parsed), res.Rows), nil
}

// checker compares answers against references computed on a cache-off
// engine over the same graph, memoizing by query text and parameters.
type checker struct {
	eng  *engine.Engine
	ref  referenceFunc
	memo map[string]answer
}

func newChecker(eng *engine.Engine, ref referenceFunc) *checker {
	if ref == nil {
		ref = referenceAnswer
	}
	return &checker{eng: eng, ref: ref, memo: map[string]answer{}}
}

func queryKey(q Query) string {
	p, _ := json.Marshal(q.Params) // parameters are ints and int slices
	return q.Text + "\x00" + string(p)
}

// reference returns the memoized reference answer of q.
func (c *checker) reference(q Query) (answer, error) {
	key := queryKey(q)
	if want, ok := c.memo[key]; ok {
		return want, nil
	}
	want, err := c.ref(c.eng, q)
	if err != nil {
		return want, err
	}
	c.memo[key] = want
	return want, nil
}

// check reports whether got matches the reference answer of q.
func (c *checker) check(q Query, got answer) (bool, answer, error) {
	want, err := c.reference(q)
	if err != nil {
		return false, want, err
	}
	return got.equal(want), want, nil
}

// answerOf digests rows received for q, or the error that ended it.
func answerOf(q Query, rows [][]any, err error) answer {
	if err != nil {
		return answer{Error: err.Error()}
	}
	parsed, perr := cypher.Parse(q.Text)
	if perr != nil {
		return answer{Error: perr.Error()}
	}
	return digest(shapeOf(parsed), rows)
}
