package main

import (
	"fmt"
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/graph"
)

// Transports a query can be sent over.
const (
	transportJSON   = "json"   // HTTP POST /query, one JSON document
	transportNDJSON = "ndjson" // HTTP POST /query with "stream": true
	transportVSWP   = "vswp"   // the binary wire protocol through client/
)

var allTransports = []string{transportVSWP, transportNDJSON, transportJSON}

// Query is one generated request: the text the program receives, its
// parameters, and the transport that carries it.
type Query struct {
	Index     int
	Case      string
	Text      string
	Params    map[string]any
	Transport string
}

// Workload is one named traffic mix over one generated graph.
type Workload struct {
	Name string
	// Round is the length of one round of the workload's case deck: every
	// Round consecutive queries from the start hold the exact mix.
	Round int
	// TraceQueries is how many queries of the seeded sequence the traced
	// run replays per rung.
	TraceQueries int
	// Graph generates the workload's graph. Its structure is the same for
	// every seed: on graphs of this size, the cost of the paper's queries
	// varies by 20-40% from one generator seed to the next, which would
	// drown the differences between two versions of the program.
	Graph func() (*graph.Graph, error)
	// newGen returns the query sequence that rng draws over g.
	newGen func(rng *rand.Rand, g *graph.Graph) func() Query
}

// Generator yields a workload's deterministic query sequence.
type Generator struct {
	next  func() Query
	index int
}

// Next returns the following query of the sequence.
func (g *Generator) Next() Query {
	q := g.next()
	q.Index = g.index
	g.index++
	return q
}

// NewGenerator seeds a workload's query sequence.
func (w *Workload) NewGenerator(seed int64, g *graph.Graph) *Generator {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	return &Generator{next: w.newGen(rng, g)}
}

// Sequence returns the first n queries of the seeded sequence.
func (w *Workload) Sequence(seed int64, g *graph.Graph, n int) []Query {
	gen := w.NewGenerator(seed, g)
	out := make([]Query, n)
	for i := range out {
		out[i] = gen.Next()
	}
	return out
}

var workloads = []*Workload{socialAnalytics, finPoint, socialExport}

func workloadByName(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// deck deals entries in shuffled rounds, so every window of len(entries)
// consecutive draws holds each entry exactly as often as it is listed. A
// run's mix then matches the weights to within one round, which keeps the
// latency percentiles inside the groups the weights put them in.
type deck[T any] struct {
	rng     *rand.Rand
	entries []T
	pending []T
}

func newDeck[T any](rng *rand.Rand, entries ...T) *deck[T] {
	return &deck[T]{rng: rng, entries: entries}
}

func (d *deck[T]) draw() T {
	if len(d.pending) == 0 {
		d.pending = append(d.pending[:0], d.entries...)
		d.rng.Shuffle(len(d.pending), func(i, j int) {
			d.pending[i], d.pending[j] = d.pending[j], d.pending[i]
		})
	}
	v := d.pending[len(d.pending)-1]
	d.pending = d.pending[:len(d.pending)-1]
	return v
}

func repeat[T any](v T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func concat[T any](parts ...[]T) []T {
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

const (
	socialVertices = 5000
	socialEdges    = 30000
)

// graphSeed is the generator seed of every workload's graph.
const graphSeed = 1

func socialGraph() (*graph.Graph, error) {
	return datagen.SocialNetwork(datagen.SocialConfig{
		Name:              "social",
		NumVertices:       socialVertices,
		NumEdges:          socialEdges,
		Seed:              graphSeed,
		CommunityFraction: 0.25,
	})
}

// socialAnalytics runs the paper's social cases C1–C5 (§6.2) over HTTP
// JSON with equal weights.
var socialAnalytics = &Workload{
	Name:         "social-analytics",
	Round:        60,
	TraceQueries: 20,
	Graph:        socialGraph,
	newGen: func(rng *rand.Rand, g *graph.Graph) func() Query {
		cases := newDeck(rng, concat(repeat("C1", 12), repeat("C2", 12), repeat("C3", 12), repeat("C4", 12), repeat("C5", 12))...)
		// C1-C3 deal their (label, kmax) pairs in exact proportion every
		// round, so a run's cost does not hinge on which community the few
		// slow queries draw. The kmax weights sort the mix into bands:
		// 40% fast (C1 answered from the cache, C4), 5% C3 at kmax 2, 20%
		// C5, 30% C3 at kmax 3 and C2 at kmax 2, 5% C2 at kmax 3. That
		// puts p50 inside C5, whose 64 random sources make its latency the
		// least dependent on the draw, and p90 inside the 30% band,
		// instead of on a gap between two bands.
		type shape struct {
			label string
			kmax  int
		}
		shapeDecks := map[string]*deck[shape]{}
		for c, ks := range map[string][]int{"C1": {2, 3}, "C2": {2, 2, 2, 3}, "C3": {2, 3, 3, 3}} {
			var shapes []shape
			for _, l := range datagen.Communities {
				for _, k := range ks {
					shapes = append(shapes, shape{l, k})
				}
			}
			shapeDecks[c] = newDeck(rng, shapes...)
		}
		n := g.NumVertices()
		return func() Query {
			c := cases.draw()
			q := Query{Case: c, Transport: transportJSON}
			switch c {
			case "C1":
				sh := shapeDecks[c].draw()
				q.Text = fmt.Sprintf(`MATCH (p:%s)-[:knows*..%d]-(q:%s) RETURN COUNT(DISTINCT p,q)`, sh.label, sh.kmax, sh.label)
			case "C2":
				sh := shapeDecks[c].draw()
				q.Text = fmt.Sprintf(`MATCH (p:%s)-[:knows*..%d]-(q:Person) WHERE NOT q:%s RETURN COUNT(DISTINCT p) as c,q ORDER BY c DESC LIMIT 100`, sh.label, sh.kmax, sh.label)
			case "C3":
				sh := shapeDecks[c].draw()
				q.Text = fmt.Sprintf(`MATCH (p:%s)-[:knows*..%d]-(q:%s) RETURN COUNT(DISTINCT p) as c,q ORDER BY c ASC LIMIT 100`, sh.label, sh.kmax, sh.label)
			case "C4":
				p := rng.Perm(3)
				ls := datagen.Communities
				q.Text = fmt.Sprintf(`MATCH (a:Person:%s)-[:knows*1..%d]-(b:Person:%s) MATCH (b)-[:knows*1..%d]-(c:Person:%s) MATCH (a)-[:knows*1..%d]-(c) RETURN COUNT(DISTINCT a,b,c)`,
					ls[p[0]], 1+rng.Intn(2), ls[p[1]], 1+rng.Intn(2), ls[p[2]], 1+rng.Intn(2))
			case "C5":
				ids := make([]int64, 64)
				for i := range ids {
					ids[i] = 1000 + int64(rng.Intn(n))
				}
				q.Text = `UNWIND $person_ids AS pid MATCH (p:Person{id:pid})<-[:knows*2..3]-(q:Person) RETURN pid,COUNT(DISTINCT q)`
				q.Params = map[string]any{"person_ids": ids}
			}
			return q
		}
	},
}

// finPoint runs the paper's FinBench cases over the wire protocol.
var finPoint = &Workload{
	Name:         "fin-point",
	Round:        20,
	TraceQueries: 20,
	Graph: func() (*graph.Graph, error) {
		g, _, err := datagen.FinancialGraph(finConfig())
		return g, err
	},
	newGen: func(rng *rand.Rand, g *graph.Graph) func() Query {
		lay := finLayoutFor(g.NumVertices())
		// Weights put p50 inside the fast C7/C8/C10 group and p90 inside
		// the slow C9/C12 group.
		cases := newDeck(rng, concat(repeat("C7", 5), repeat("C8", 5), repeat("C10", 4), repeat("C11", 2), repeat("C9", 2), repeat("C12", 2))...)
		pick := func(lo, hi graph.VertexID) int64 {
			return 1000 + int64(lo) + int64(rng.Intn(int(hi-lo)))
		}
		account := func() int64 { return pick(lay.AccountLo, lay.AccountHi) }
		return func() Query {
			c := cases.draw()
			q := Query{Case: c, Transport: transportVSWP}
			switch c {
			case "C7":
				q.Text = `MATCH (a:Account{id:$rid})-[:transfer*1..3]->(b:Account) RETURN DISTINCT b`
				q.Params = map[string]any{"rid": account()}
			case "C8":
				q.Text = `MATCH p=(start:Account{id:$id})-[:transfer*1..3]->(neighbor:Account), (neighbor)<-[:signIn]-(medium:Medium) WHERE medium.isBlocked = true RETURN neighbor, length(p)`
				q.Params = map[string]any{"id": account()}
			case "C9":
				q.Text = `MATCH (person:Person{id:$id})-[:own]->(account:Account)<-[:transfer*1..3]-(other:Account)<-[:deposit]-(loan:Loan) RETURN other.id, SUM(DISTINCT loan.balance), COUNT(DISTINCT loan)`
				q.Params = map[string]any{"id": pick(lay.PersonLo, lay.PersonHi)}
			case "C10":
				q.Text = `MATCH (a:Account{id:$id1}), (b:Account{id:$id2}), p=shortestPath((a)-[:transfer*1..]->(b)) RETURN length(p)`
				q.Params = map[string]any{"id1": account(), "id2": account()}
			case "C11":
				q.Text = `MATCH (a:Account{id:$id})<-[:withdraw]-(mid:Account)<-[:transfer]-(other:Account) RETURN mid.id, other.id`
				q.Params = map[string]any{"id": account()}
			case "C12":
				q.Text = `MATCH (loan:Loan{id:$id})-[:deposit]->(src:Account)-[p:transfer|withdraw*1..3]->(other:Account) RETURN DISTINCT other.id, length(p)`
				q.Params = map[string]any{"id": pick(lay.LoanLo, lay.LoanHi)}
			}
			return q
		}
	},
}

// FinBench SF10 (Table 1: 5.1M vertices, 22M edges) at scale 0.01, with
// the vertex mix and edge split of datagen.Generate.
const (
	finVertices = 51_000
	finEdges    = 220_000
)

func finConfig() datagen.FinConfig {
	persons := finVertices / 4
	accounts := finVertices / 2
	loans := finVertices / 8
	return datagen.FinConfig{
		Name:            "finbench",
		NumPersons:      persons,
		NumAccounts:     accounts,
		NumLoans:        loans,
		NumMediums:      finVertices - persons - accounts - loans,
		NumTransfers:    finEdges * 2 / 3,
		NumWithdraws:    finEdges / 6,
		Seed:            graphSeed,
		BlockedFraction: 0.1,
	}
}

// finLayoutFor recomputes the vertex ranges of a financial graph from its
// configuration; the opened graph does not carry the layout.
func finLayoutFor(n int) datagen.FinLayout {
	cfg := finConfig()
	lay := datagen.FinLayout{}
	lay.PersonLo, lay.PersonHi = 0, graph.VertexID(cfg.NumPersons)
	lay.AccountLo, lay.AccountHi = lay.PersonHi, lay.PersonHi+graph.VertexID(cfg.NumAccounts)
	lay.LoanLo, lay.LoanHi = lay.AccountHi, lay.AccountHi+graph.VertexID(cfg.NumLoans)
	lay.MediumLo, lay.MediumHi = lay.LoanHi, graph.VertexID(n)
	return lay
}

// socialExport streams large projections over all three transports.
var socialExport = &Workload{
	Name:         "social-export",
	Round:        3,
	TraceQueries: 12,
	Graph:        socialGraph,
	newGen: func(rng *rand.Rand, g *graph.Graph) func() Query {
		transports := newDeck(rng, allTransports...)
		projections := []string{"p, q", "p.id, q.name", "p.name, q.id"}
		n := g.NumVertices()
		return func() Query {
			// Persons in an id window joined to one community within two
			// hops: about 34 rows per window vertex.
			w := 500 + rng.Intn(600)
			lo := 1000 + rng.Intn(n-w)
			l := datagen.Communities[rng.Intn(len(datagen.Communities))]
			return Query{
				Case:      "export",
				Transport: transports.draw(),
				Text: fmt.Sprintf(`MATCH (p:Person)-[:knows*1..2]-(q:%s) WHERE p.id >= %d AND p.id < %d RETURN %s`,
					l, lo, lo+w, projections[rng.Intn(len(projections))]),
			}
		}
	},
}
