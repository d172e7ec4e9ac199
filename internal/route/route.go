// Package route implements negotiated-congestion routing on the implicit
// MRRG: least-cost path search that allows resource oversubscription,
// plus the PathFinder/SPR-style cost escalation loop HiMap's MAP() and
// ROUTE() functions are built on (§V: "All ports are initially assigned
// the same cost. At the end of each iteration, the costs of
// oversubscribed ports are increased ... inspired by SPR").
//
// Searches run in *real* (unwrapped) time so that a route's length equals
// the true producer→consumer latency; occupancy is charged modulo II via
// mrrg.Graph.DenseKey. Search is pruned at the latest target cycle — the
// resource edges are time-monotone, so no useful path extends past it.
//
// The search core is A* over a Dial-style bucket queue. It returns
// exactly the path, cost, and error a plain Dijkstra over one global
// (cost, RealKey) binary heap returns — the tests keep such a Dijkstra
// as their reference (see DESIGN.md "Router" for the argument):
//
//   - The heuristic is admissible and consistent: per target, 0.7 × the
//     topology hop distance (arch.Fabric.HopDist — Manhattan, wrapped
//     Manhattan on a torus, Chebyshev with diagonals) plus 0.3 × the
//     remaining cycles, minimized over the targets (heuristicAt has the
//     entry-cost accounting). Nodes from which no target is reachable in
//     time are pruned outright.
//   - Every cost atom is an exact multiple of 0.1, so a frontier entry's
//     f = g+h quantizes exactly into a deci-cost bucket; buckets pop in
//     Dial order and each bucket is a small binary heap ordered by the
//     exact (float cost, RealKey) pair — the global pop order is exactly
//     the (cost, key) order of one global heap.
//   - Tie-breaking is order-independent: on an exactly equal tentative
//     cost the predecessor with the smaller RealKey wins the parent slot,
//     and when the first target pops, its whole bucket is drained before
//     committing so every same-cost parent claim (and every same-cost
//     target) has been seen; the final target is the (cost, RealKey)
//     minimum of the drained hits — precisely the node Dijkstra pops
//     first.
//
// Memory discipline: the search inner loop is allocation-free in steady
// state. All per-search state (dist, parent, closed, heuristic, target
// and ownership marks) lives in flat generation-stamped scratch arrays
// indexed by dense packed node keys; a search invalidates the previous
// search's entries by bumping a generation counter instead of clearing
// or reallocating. The bucket queue's per-bucket heaps are value items
// (no container/heap interface boxing) and are themselves generation-
// stamped. Occupancy and history costs are flat arrays over the modulo
// key space, so the enterCost call on every relaxed edge is two array
// loads. See DESIGN.md ("Concurrency model & hot-path memory
// discipline").
package route

import (
	"errors"
	"fmt"

	"himap/internal/mrrg"
)

// Sentinel route failures, errors.Is-able through the wrapped errors
// RouteSink returns (and through the StageErrors of the mappers built on
// this package).
var (
	// ErrNoPath: the search exhausted the reachable sub-graph without
	// touching a target (or had no targets at all).
	ErrNoPath = errors.New("no path")
	// ErrSearchLimit: the search visited more nodes than Session.MaxVisits
	// allows — congestion so severe the search was cut off.
	ErrSearchLimit = errors.New("search limit exceeded")
)

// Path is a resource node sequence from a producer to one sink; node 0 is
// the producer's own placement node (FU or memory read port). Times are
// real (unwrapped).
type Path []mrrg.Node

// Net is one routed signal: a producer node and a tree of paths to its
// sinks. Paths share resource nodes freely (a net may reuse its own
// nodes at no cost — fanout taps an existing wire).
type Net struct {
	ID     int
	Src    mrrg.Node
	Paths  []Path
	srcKey uint64      // RealKey(Src)
	keys   []uint64    // RealKeys of list, for O(n) membership on commit
	list   []mrrg.Node // nodes charged to occupancy (excludes Src)
}

// Nodes reports the set of real-keyed resource nodes the net occupies.
func (n *Net) Nodes() map[uint64]bool {
	m := make(map[uint64]bool, len(n.keys)+1)
	m[n.srcKey] = true
	for _, k := range n.keys {
		m[k] = true
	}
	return m
}

// NodeList reports the nodes charged to occupancy (excluding Src), in
// commit order. Callers must not mutate it.
//
//himap:noalloc
func (n *Net) NodeList() []mrrg.Node { return n.list }

// Session tracks resource occupancy and history costs across the nets of
// one mapping attempt. A Session (and its scratch storage) may be reused
// across many routing rounds; it is not safe for concurrent use.
type Session struct {
	G *mrrg.Graph

	// PresFac scales the penalty for entering an oversubscribed node;
	// HistBump is added to a node's history cost each escalation round.
	PresFac  float64
	HistBump float64
	// MaxVisits bounds each search. NewSession derives the default from
	// the fabric's dense key space (16× NumDenseKeys, floor 4096) so
	// large-fabric searches are not cut off spuriously while small-fabric
	// searches fail fast; overriding the field still works.
	MaxVisits int

	// Envelope, when non-nil, confines the search to PEs inside the
	// rectangle. HiMap's canonical routing uses it to keep paths inside
	// the spatial envelope that exists for every replica of the route (a
	// class member near the array edge must be able to reuse the
	// translated path). The search scratch is sized to the envelope, not
	// to the whole array.
	Envelope *Rect

	// occ and hist are dense arrays over the modulo occupancy key space
	// (mrrg.Graph.DenseKey) — the negotiated-congestion state.
	occ    []int32
	hist   []float64
	netSeq int

	// mark/markGen is generation-stamped dedup scratch for
	// OversubscribedIn (avoids a per-call hash map).
	mark    []uint32
	markGen uint32

	// netFree recycles Net storage from discarded routing rounds (see
	// FreeNet); a congested attempt re-routes the same net set every
	// round, so the freelist makes rounds after the first allocation-free
	// on the net side.
	netFree []*Net

	// model is the installed congestion-pricing model; baseTab/capTab
	// are its per-class materialization (see SetCostModel), so the
	// pricing on every relaxed edge stays two array loads with no
	// interface dispatch. NewSession installs For(G).
	model   CostModel
	baseTab [mrrg.NumClasses]float64
	capTab  [mrrg.NumClasses]int32

	// linearKeys records that DenseKey is a pure linear function of the
	// dense search index (true except on shared-bus fabrics, where the
	// Out directions collapse onto one occupancy slot). The A* core's
	// index+tdelta occupancy-key fast path is valid only when set.
	linearKeys bool

	sc scratch
}

// Rect is an inclusive rectangle of PE coordinates.
type Rect struct{ R0, R1, C0, C1 int }

// Contains reports whether PE (r, c) lies inside the rectangle.
//
//himap:noalloc
func (rc *Rect) Contains(r, c int) bool {
	return r >= rc.R0 && r <= rc.R1 && c >= rc.C0 && c <= rc.C1
}

// defaultMaxVisits scales the per-search visit budget with the dense key
// space: every search closes a node at most once (up to rare ulp-scale
// reopenings), and a search spans a small multiple of II real cycles, so
// 16× the modulo key space is generous on every fabric while still
// cutting off runaway congestion quickly on small arrays.
func defaultMaxVisits(denseKeys int) int {
	v := 16 * denseKeys
	if v < 4096 {
		v = 4096
	}
	return v
}

// NewSession creates a routing session over g with the default cost
// parameters. Occupancy and history storage is allocated once here and
// reused for the session's lifetime; ResetKeepHistory and Reset clear it
// in place rather than reallocating.
func NewSession(g *mrrg.Graph) *Session {
	n := g.NumDenseKeys()
	s := &Session{
		G:          g,
		PresFac:    2.0,
		HistBump:   3.0,
		MaxVisits:  defaultMaxVisits(n),
		occ:        make([]int32, n),
		hist:       make([]float64, n),
		mark:       make([]uint32, n),
		linearKeys: !g.SharedOut(),
	}
	if err := s.SetCostModel(For(g)); err != nil {
		// The built-in models satisfy the invariants by construction.
		panic(err)
	}
	return s
}

// ResetKeepHistory clears all occupancy and nets but keeps the
// accumulated history costs — the state carried between negotiated
// congestion rounds when a mapping attempt is rebuilt from scratch.
// The occupancy storage is zeroed in place, not reallocated.
//
//himap:noalloc
func (s *Session) ResetKeepHistory() {
	clear(s.occ)
	s.netSeq = 0
}

// Reset returns the session to its NewSession state (occupancy, history,
// and net numbering all cleared) while keeping every allocation for
// reuse — the cheap way to recycle a Session across mapping attempts.
//
//himap:noalloc
func (s *Session) Reset() {
	clear(s.occ)
	clear(s.hist)
	s.netSeq = 0
}

// baseCost is the legacy intrinsic cost of occupying one resource node
// — the UnitModel's table and the admissibility floor every CostModel
// is validated against. Every value is an exact multiple of 0.1 —
// together with integral PresFac and HistBump multiples this keeps all
// accumulated costs on the deci-unit grid the bucket queue quantizes
// into.
//
//himap:noalloc
func baseCost(c mrrg.Class) float64 {
	switch c {
	case mrrg.ClassOut:
		return 1.0
	case mrrg.ClassReg:
		return 0.6
	case mrrg.ClassRFRead, mrrg.ClassRFWrite:
		return 0.3
	case mrrg.ClassMemRead, mrrg.ClassMemWrite:
		return 1.0
	default:
		return 1.0
	}
}

// enterCost prices entering node n for a net that does not yet own it.
//
//himap:noalloc
func (s *Session) enterCost(n mrrg.Node) float64 {
	return s.enterCostAt(n, s.G.DenseKey(n))
}

// enterCostAt is enterCost with the node's dense occupancy key already
// resolved — the A* core derives it from the search index and a
// precomputed per-cycle delta instead of re-deriving the full DenseKey.
//
//himap:noalloc
func (s *Session) enterCostAt(n mrrg.Node, key int) float64 {
	over := int(s.occ[key]) + 1 - int(s.capTab[n.Class])
	pen := 1.0
	if over > 0 {
		pen = 1.0 + float64(over)*s.PresFac
	}
	return s.baseTab[n.Class]*pen + s.hist[key]
}

// Reserve marks a placement node (FU slot, memory port) occupied outside
// any net, e.g. an operation placement. It returns the new occupancy.
//
//himap:noalloc
func (s *Session) Reserve(n mrrg.Node) int {
	k := s.G.DenseKey(n)
	s.occ[k]++
	return int(s.occ[k])
}

// Unreserve releases a Reserve.
//
//himap:noalloc
func (s *Session) Unreserve(n mrrg.Node) {
	s.occ[s.G.DenseKey(n)]--
}

// Occ returns the current occupancy of a node (modulo II).
//
//himap:noalloc
func (s *Session) Occ(n mrrg.Node) int { return int(s.occ[s.G.DenseKey(n)]) }

// Hist returns the accumulated history cost of a node (for tests).
//
//himap:noalloc
func (s *Session) Hist(n mrrg.Node) float64 { return s.hist[s.G.DenseKey(n)] }

// heapItem is one frontier entry: the priority f = g+h, the node's
// RealKey (the deterministic tie-break — kept identical to the historical
// container/heap ordering so mappings are bit-stable across releases),
// and the node's dense scratch index.
type heapItem struct {
	cost float64
	key  uint64
	idx  int32
}

//himap:noalloc
func itemLess(a, b heapItem) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.key < b.key
}

// minHeap is a hand-rolled binary min-heap of value items — no
// interface{} boxing, no per-push allocation once warmed up. The bucket
// queue keeps one small heap per deci-cost bucket.
type minHeap []heapItem

//himap:noalloc
func (h *minHeap) push(it heapItem) {
	q := append(*h, it)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !itemLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

//himap:noalloc
func (h *minHeap) pop() heapItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && itemLess(q[r], q[l]) {
			m = r
		}
		if !itemLess(q[m], q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// deci quantizes a cost onto the bucket grid. Every cost atom (base
// costs, presence penalties, history bumps, heuristic terms) is an exact
// multiple of 0.1, so accumulated float sums sit within ulps of a grid
// point and round-to-nearest recovers the exact deci value; two sums
// that are mathematically equal but float-unequal always land in the
// same bucket, where the per-bucket heap orders them by the exact float.
//
//himap:noalloc
func deci(f float64) int { return int(f*10 + 0.5) }

// bucketQueue is a Dial-style monotone priority queue: frontier entries
// hash into deci-cost buckets popped in ascending order, and each bucket
// is a small binary min-heap over the exact (cost, RealKey) pair. Pops
// therefore follow the exact global (cost, key) order of one big heap,
// but push/pop touch only a bucket-sized heap — on wide frontiers the
// log factor collapses to the handful of entries sharing one deci cost.
// Buckets grow monotonically and are generation-stamped like the rest of
// the scratch, so steady-state searches allocate nothing.
type bucketQueue struct {
	buckets []minHeap
	bgen    []uint32
	gen     uint32
	cur     int
	n       int
}

// reset opens a new search. The queue keeps its own generation counter
// (it must not share the Scratch's, which restarts when the scratch
// arrays grow — leftover undrained bucket entries from a prior search
// would then masquerade as live).
//
//himap:noalloc
func (q *bucketQueue) reset() {
	q.gen++
	if q.gen == 0 {
		clear(q.bgen)
		q.gen = 1
	}
	q.cur = 0
	q.n = 0
}

//himap:noalloc
func (q *bucketQueue) push(it heapItem) {
	d := deci(it.cost)
	if d < q.cur {
		// A consistent heuristic keeps priorities monotone up to float
		// jitter at a bucket boundary; fold such pushes into the current
		// bucket so the Dial cursor never moves backwards.
		d = q.cur
	}
	for len(q.buckets) <= d {
		q.buckets = append(q.buckets, nil)
		q.bgen = append(q.bgen, 0)
	}
	if q.bgen[d] != q.gen {
		q.bgen[d] = q.gen
		q.buckets[d] = q.buckets[d][:0]
	}
	b := &q.buckets[d]
	b.push(it)
	q.n++
}

// peek advances the cursor to the first live non-empty bucket and
// returns its deci cost, or -1 when the queue is empty.
//
//himap:noalloc
func (q *bucketQueue) peek() int {
	if q.n == 0 {
		return -1
	}
	for q.bgen[q.cur] != q.gen || len(q.buckets[q.cur]) == 0 {
		q.cur++
	}
	return q.cur
}

//himap:noalloc
func (q *bucketQueue) pop() heapItem {
	q.peek()
	b := &q.buckets[q.cur]
	it := b.pop()
	q.n--
	return it
}

// scratch is the Session's search working set: flat arrays over the
// dense real-node index space of one search, invalidated between
// searches by a generation stamp (an entry is live only when its stamp
// equals the current generation). The arrays grow monotonically and are
// never cleared, so steady-state searches allocate nothing. The zero
// value is ready to use.
type scratch struct {
	gen    uint32
	seen   []uint32  // dist/hval/parent valid when seen[i] == gen
	dist   []float64 // tentative cost g
	hval   []float64 // cached heuristic h
	key    []uint64  // cached RealKey of node i
	parent []int32   // dense index of the predecessor; -1 for seeds
	closed []uint32  // node finalized when closed[i] == gen
	tgt    []uint32  // node is a search target when tgt[i] == gen
	owned  []uint32  // node already belongs to the net when owned[i] == gen
	tdelta []int     // per relative cycle: DenseKey - search index delta
	// rowSkew is the per-row DenseKey - search index drift when the
	// window is narrower than the array (0 for full-width windows).
	rowSkew int
	hits    []int32 // targets popped while draining the goal bucket
	bq      bucketQueue

	// The heuristic depends only on a node's (cycle, PE) and whether its
	// class is Out — not on the slot — so it is computed once per
	// (cycle, PE) into h0 (general) / h1 (Out credit) when first touched
	// (hseen stamp), not once per node: a SlotsPerPE-fold saving on the
	// per-search target loops.
	hseen []uint32
	h0    []float64
	h1    []float64
}

// window is the dense index space of one search: real cycles [tBase,
// maxT] over the PE rectangle of rows×cols PEs with origin (r0, c0), and
// slots dense resource slots per PE. A search only indexes nodes inside
// its window.
type window struct {
	tBase, maxT int
	r0, c0      int
	rows, cols  int
	slots       int
}

// numPEs is the size of the window's (cycle, PE) space.
func (w window) numPEs() int { return (w.maxT - w.tBase + 1) * w.rows * w.cols }

// pe is the (cycle, PE) index of n — the heuristic cache key.
//
//himap:noalloc
func (w window) pe(n mrrg.Node) int {
	return ((n.T-w.tBase)*w.rows+n.R-w.r0)*w.cols + n.C - w.c0
}

// begin opens a new search generation over n dense indices (npe of them
// per slot — the (cycle, PE) space the heuristic cache is keyed by).
func (sc *scratch) begin(n, npe int) {
	if len(sc.seen) < n {
		// Grow geometrically: search windows vary net to net, and
		// doubling caps the reallocation count at log of the largest
		// window instead of once per new high-water mark.
		if c := 2 * len(sc.seen); n < c {
			n = c
		}
		sc.seen = make([]uint32, n)
		sc.dist = make([]float64, n)
		sc.hval = make([]float64, n)
		sc.key = make([]uint64, n)
		sc.parent = make([]int32, n)
		sc.closed = make([]uint32, n)
		sc.tgt = make([]uint32, n)
		sc.owned = make([]uint32, n)
		sc.gen = 0 // fresh arrays are all-zero: restart stamping
	}
	if len(sc.hseen) < npe {
		if c := 2 * len(sc.hseen); npe < c {
			npe = c
		}
		sc.hseen = make([]uint32, npe)
		sc.h0 = make([]float64, npe)
		sc.h1 = make([]float64, npe)
		sc.gen = 0
	}
	sc.gen++
	if sc.gen == 0 { // generation counter wrapped: purge stale stamps
		clear(sc.seen)
		clear(sc.closed)
		clear(sc.tgt)
		clear(sc.owned)
		clear(sc.hseen)
		sc.gen = 1
	}
	sc.hits = sc.hits[:0]
	sc.bq.reset()
}

// NewNet starts a net at the producer's placement node. The source node's
// occupancy is the producer's own (via Reserve); the net reuses it freely.
// Storage comes from the FreeNet freelist when available.
func (s *Session) NewNet(src mrrg.Node) *Net {
	s.netSeq++
	if k := len(s.netFree); k > 0 {
		net := s.netFree[k-1]
		s.netFree = s.netFree[:k-1]
		net.ID, net.Src, net.srcKey = s.netSeq, src, mrrg.RealKey(src)
		return net
	}
	return &Net{
		ID:     s.netSeq,
		Src:    src,
		srcKey: mrrg.RealKey(src),
	}
}

// FreeNet returns a net whose plan has been discarded (a failed
// congestion round) to the session freelist for NewNet to reuse. The
// caller must hold no references to the net afterwards, and the net's
// occupancy charges must already be gone (FreeNet does not release
// them — after ResetKeepHistory there is nothing left to release).
// Path storage is NOT recycled: committed Path slices may outlive the
// net in the caller's plan metadata; only the headers array is reused.
func (s *Session) FreeNet(net *Net) {
	net.keys = net.keys[:0]
	net.list = net.list[:0]
	net.Paths = net.Paths[:0]
	s.netFree = append(s.netFree, net)
}

// nodeAt reconstructs the node of a dense scratch index (the inverse of
// the packing in RouteSink).
//
//himap:noalloc
func (s *Session) nodeAt(i int32, w window) mrrg.Node {
	slot := int(i) % w.slots
	rest := int(i) / w.slots
	pes := w.rows * w.cols
	pe := rest % pes
	cl, idx := s.G.SlotResource(slot)
	return mrrg.Node{T: rest/pes + w.tBase, R: w.r0 + pe/w.cols, C: w.c0 + pe%w.cols, Class: cl, Idx: idx}
}

// heuristicAt is the admissible, consistent lower bound on the remaining
// cost from n to the cheapest target, minimized over targets:
//
//	0.7·hops + 0.3·Δcycles
//
// where hops is the topology link distance to the target's PE and
// Δcycles = target cycle − n's cycle. Each of the Δcycles time-advancing
// edges enters a node costing ≥ 0.3, and each of the hops link crossings
// additionally requires entering an output register at 1.0 (0.7 beyond
// the 0.3 its time step already accounts for); when n itself is an
// output register it can source the first crossing, so one 0.7 premium
// is waived (the Out lane). A target is unreachable — skipped — when
// Δcycles < hops (every crossing takes a full cycle) or Δcycles < 0
// (time is monotone); a node with no reachable target returns -1 and is
// pruned outright. Search paths never pass through net-owned (cost-0)
// nodes — those are all seeds, and edges into them never relax — so
// every remaining entry really does pay its class base cost. Consistency
// (h(n) ≤ enterCost(m) + h(m) along every Succ edge) is exactly tight on
// crossings into output registers (Δh = 1.0) and into RF write ports
// (Δh = 0.3); see DESIGN.md for the per-edge-class case analysis.
//
// It depends only on the node's (cycle, PE, is-Out), so the per-target
// loop runs once per (cycle, PE) of a search, cached in the scratch
// under pi, n's (cycle, PE) index in the search window (both the general
// and the Out-credit lanes fill from one target scan).
//
//himap:noalloc
func (s *Session) heuristicAt(sc *scratch, n mrrg.Node, pi int, targets []mrrg.Node) float64 {
	if sc.hseen[pi] != sc.gen {
		sc.hseen[pi] = sc.gen
		h0, h1 := -1.0, -1.0
		for _, t := range targets {
			dt := t.T - n.T
			if dt < 0 {
				continue // time is monotone: target already in the past
			}
			d := s.G.Fab.HopDist(n.R, n.C, t.R, t.C)
			if dt < d {
				continue // each link crossing takes a cycle: unreachable
			}
			ht := 0.3 * float64(dt)
			v0 := 0.7*float64(d) + ht
			if d > 0 {
				d--
			}
			v1 := 0.7*float64(d) + ht
			if h0 < 0 || v0 < h0 {
				h0 = v0
			}
			if h1 < 0 || v1 < h1 {
				h1 = v1
			}
		}
		sc.h0[pi] = h0
		sc.h1[pi] = h1
	}
	if n.Class == mrrg.ClassOut {
		return sc.h1[pi]
	}
	return sc.h0[pi]
}

// searchWindow sizes the dense index space of one search. In time it
// covers real cycles [tBase, maxT]: tBase is the earliest seed or target
// (successor times are monotone, so nothing before it is reachable),
// maxT the latest target (nothing after it is useful). In space it
// covers every node the search can index: the seeds and the targets,
// plus the nodes relaxed from popped nodes, which lie inside the
// Envelope when one is set. The search pops only nodes that can still
// reach a target in time, and each link crossing takes a cycle moving at
// most one row and one column, so on a non-wrapping fabric everything it
// relaxes also lies within span+1 rows and columns of a target. Ties
// break on (cost, RealKey), never on the index, so the window's shape
// cannot change a path.
func (s *Session) searchWindow(net *Net, targets []mrrg.Node) window {
	w := window{tBase: targets[0].T, maxT: targets[0].T, slots: s.G.SlotsPerPE()}
	tr0, tr1, tc0, tc1 := targets[0].R, targets[0].R, targets[0].C, targets[0].C
	for _, t := range targets {
		w.tBase, w.maxT = min(w.tBase, t.T), max(w.maxT, t.T)
		tr0, tr1, tc0, tc1 = min(tr0, t.R), max(tr1, t.R), min(tc0, t.C), max(tc1, t.C)
	}
	w.tBase = min(w.tBase, net.Src.T)
	for _, p := range net.Paths {
		for _, n := range p {
			w.tBase = min(w.tBase, n.T)
		}
	}

	r0, r1, c0, c1 := 0, s.G.Fab.Rows-1, 0, s.G.Fab.Cols-1
	if env := s.Envelope; env != nil {
		r0, r1, c0, c1 = max(r0, env.R0), min(r1, env.R1), max(c0, env.C0), min(c1, env.C1)
	}
	if !s.G.Fab.Topology.Wraps() {
		reach := w.maxT - w.tBase + 1
		r0, r1 = max(r0, tr0-reach), min(r1, tr1+reach)
		c0, c1 = max(c0, tc0-reach), min(c1, tc1+reach)
	}
	// Seeds and targets may lie outside the clipped rectangle (a source
	// or relay pin just off the envelope); they are indexed all the same.
	r0, r1, c0, c1 = min(r0, tr0), max(r1, tr1), min(c0, tc0), max(c1, tc1)
	cover := func(n mrrg.Node) {
		r0, r1, c0, c1 = min(r0, n.R), max(r1, n.R), min(c0, n.C), max(c1, n.C)
	}
	cover(net.Src)
	for _, p := range net.Paths {
		for _, n := range p {
			cover(n)
		}
	}
	w.r0, w.c0, w.rows, w.cols = r0, c0, r1-r0+1, c1-c0+1
	return w
}

// RouteSink extends the net with a least-cost path from any node the net
// already owns to any node of targets. Newly entered nodes are charged to
// the session occupancy (modulo II). The found path starts at an owned
// node and ends at the reached target.
//
// The search runs entirely in the session's generation-stamped scratch
// arrays: per call it allocates only the returned Path (plus one-time
// scratch growth when a search spans more cycles than any before it).
func (s *Session) RouteSink(net *Net, targets []mrrg.Node) (Path, float64, error) {
	if len(targets) == 0 {
		return nil, 0, fmt.Errorf("route: %w: no targets", ErrNoPath)
	}
	w := s.searchWindow(net, targets)
	tBase, maxT := w.tBase, w.maxT

	sc := &s.sc
	sc.begin(w.numPEs()*w.slots, w.numPEs())
	gen := sc.gen
	idxOf := func(n mrrg.Node) int32 {
		return int32(w.pe(n)*w.slots + s.G.SlotIndex(n.Class, n.Idx))
	}

	for _, t := range targets {
		sc.tgt[idxOf(t)] = gen
	}
	// Dense-key precomputation: DenseKey(node) = search index +
	// tdelta[node.T - tBase] + node.R × rowSkew, because within one
	// window row the search index and the dense occupancy key share the
	// (pe, slot) layout; rows only differ in their widths.
	sc.tdelta = sc.tdelta[:0]
	stride := w.rows * w.cols * w.slots
	origin := (w.r0*w.cols + w.c0) * w.slots
	for tr := 0; tr <= maxT-tBase; tr++ {
		sc.tdelta = append(sc.tdelta, s.G.TimeBase(tBase+tr)-tr*stride+origin)
	}
	sc.rowSkew = (s.G.Fab.Cols - w.cols) * w.slots
	seed := func(n mrrg.Node) {
		if n.T > maxT {
			return
		}
		i := idxOf(n)
		sc.owned[i] = gen
		sc.seen[i] = gen
		sc.dist[i] = 0
		sc.parent[i] = -1
		h := s.heuristicAt(sc, n, w.pe(n), targets)
		if h < 0 {
			return // no target reachable from this seed in time
		}
		sc.hval[i] = h
		sc.key[i] = mrrg.RealKey(n)
		sc.bq.push(heapItem{cost: h, key: sc.key[i], idx: i})
	}
	seed(net.Src)
	for _, p := range net.Paths {
		for _, n := range p {
			seed(n)
		}
	}

	goal, cost, err := s.searchAStar(sc, net, targets, w)
	if err != nil {
		return nil, 0, err
	}
	n := 0
	for i := goal; ; {
		n++
		p := sc.parent[i]
		if p < 0 {
			break
		}
		i = p
	}
	path := make(Path, n)
	for i, j := goal, n-1; ; j-- {
		path[j] = s.nodeAt(i, w)
		p := sc.parent[i]
		if p < 0 {
			break
		}
		i = p
	}
	s.commit(net, path)
	return path, cost, nil
}

// searchAStar is the search core: A* over the Dial bucket queue. Pops
// follow the exact (f, RealKey) order; parent slots are claimed by the
// order-independent rule "equal tentative cost → smaller predecessor
// RealKey wins"; when the first target pops, the rest of its deci bucket
// is drained (same-cost parent claims and same-cost targets all live
// there) and the (cost, RealKey)-minimal hit is committed — the same
// target, path, and cost a first-target-popped Dijkstra returns.
func (s *Session) searchAStar(sc *scratch, net *Net, targets []mrrg.Node, w window) (int32, float64, error) {
	gen := sc.gen
	env := s.Envelope
	visits := 0
	goalBucket := -1
	var gCur float64
	var iCur int32
	var curKey uint64
	relax := func(m mrrg.Node) {
		if m.T > w.maxT {
			return
		}
		if env != nil && !env.Contains(m.R, m.C) {
			return
		}
		pi := w.pe(m)
		mi := int32(pi*w.slots + s.G.SlotIndex(m.Class, m.Idx))
		nd := gCur
		if sc.owned[mi] != gen {
			key := int(mi) + sc.tdelta[m.T-w.tBase] + m.R*sc.rowSkew
			if !s.linearKeys {
				key = s.G.DenseKey(m) // shared-bus collapse: no linear shortcut
			}
			nd += s.enterCostAt(m, key)
		}
		if sc.seen[mi] != gen {
			h := s.heuristicAt(sc, m, pi, targets)
			if h < 0 {
				return // no target reachable in time: prune
			}
			sc.seen[mi] = gen
			sc.hval[mi] = h
			sc.key[mi] = mrrg.RealKey(m)
			sc.dist[mi] = nd
			sc.parent[mi] = iCur
			sc.bq.push(heapItem{cost: nd + h, key: sc.key[mi], idx: mi})
			return
		}
		if nd < sc.dist[mi] {
			sc.dist[mi] = nd
			sc.parent[mi] = iCur
			if sc.closed[mi] == gen {
				sc.closed[mi] = 0 // reopen (ulp-scale improvement)
			}
			sc.bq.push(heapItem{cost: nd + sc.hval[mi], key: sc.key[mi], idx: mi})
			return
		}
		if nd == sc.dist[mi] {
			// Deterministic, pop-order-independent parent tie-break: the
			// predecessor with the smaller RealKey keeps the slot (exactly
			// the first relaxer in Dijkstra's (g, key) pop order). Seeds
			// (parent -1) are path heads and are never re-parented.
			if p := sc.parent[mi]; p >= 0 && curKey < sc.key[p] {
				sc.parent[mi] = iCur
			}
		}
	}
	for {
		if goalBucket >= 0 {
			if sc.bq.n == 0 || sc.bq.peek() > goalBucket {
				break
			}
		} else if sc.bq.n == 0 {
			return 0, 0, fmt.Errorf("route: %w from net %d (src %v) to %v", ErrNoPath, net.ID, net.Src, targets[0])
		}
		it := sc.bq.pop()
		i := it.idx
		if sc.closed[i] == gen {
			continue
		}
		if it.cost > sc.dist[i]+sc.hval[i] {
			continue // superseded by a cheaper later push
		}
		sc.closed[i] = gen
		if goalBucket < 0 {
			visits++
			if visits > s.MaxVisits {
				return 0, 0, fmt.Errorf("route: %w (limit %d)", ErrSearchLimit, s.MaxVisits)
			}
		}
		if sc.tgt[i] == gen {
			// Targets are hits, not relay points: collect and keep
			// draining the bucket so every same-cost target (and every
			// same-cost parent claim on the winning path) is seen.
			if goalBucket < 0 {
				goalBucket = sc.bq.cur
			}
			sc.hits = append(sc.hits, i)
			continue
		}
		cur := s.nodeAt(i, w)
		gCur = sc.dist[i]
		iCur = i
		curKey = sc.key[i]
		s.G.Succ(cur, relax)
	}
	goal := sc.hits[0]
	for _, hi := range sc.hits[1:] {
		if sc.dist[hi] < sc.dist[goal] ||
			(sc.dist[hi] == sc.dist[goal] && sc.key[hi] < sc.key[goal]) {
			goal = hi
		}
	}
	return goal, sc.dist[goal], nil
}

// commit charges newly used path nodes to occupancy and records them in
// the net.
func (s *Session) commit(net *Net, path Path) {
	for _, n := range path {
		rk := mrrg.RealKey(n)
		if rk == net.srcKey || containsKey(net.keys, rk) {
			continue
		}
		net.keys = append(net.keys, rk)
		net.list = append(net.list, n)
		s.occ[s.G.DenseKey(n)]++
	}
	net.Paths = append(net.Paths, path)
}

// containsKey is a linear membership scan — net node lists are short
// (bounded by the net's total path length), so this beats a hash map.
//
//himap:noalloc
func containsKey(keys []uint64, k uint64) bool {
	for _, have := range keys {
		if have == k {
			return true
		}
	}
	return false
}

// Release rips up an entire net, returning its resources.
func (s *Session) Release(net *Net) {
	for _, n := range net.list {
		s.occ[s.G.DenseKey(n)]--
	}
	net.keys = net.keys[:0]
	net.list = net.list[:0]
	net.Paths = nil
}

// ChargeShifted charges a translated copy of the net's resources to the
// session occupancy — used when a canonical route is replicated across
// iteration clusters so that congestion reflects all replicas.
func (s *Session) ChargeShifted(net *Net, dt, dr, dc int) {
	for _, n := range net.list {
		s.occ[s.G.DenseKey(n.Shifted(dt, dr, dc))]++
	}
}

// OversubscribedIn returns the nodes of the given nets whose occupancy
// exceeds capacity.
func (s *Session) OversubscribedIn(nets []*Net) []mrrg.Node {
	s.markGen++
	if s.markGen == 0 {
		clear(s.mark)
		s.markGen = 1
	}
	var out []mrrg.Node
	for _, net := range nets {
		for _, p := range net.Paths {
			for _, n := range p {
				k := s.G.DenseKey(n)
				if s.mark[k] == s.markGen {
					continue
				}
				s.mark[k] = s.markGen
				if int(s.occ[k]) > int(s.capTab[n.Class]) {
					out = append(out, n)
				}
			}
		}
	}
	return out
}

// BumpHistory raises the history cost of every oversubscribed node among
// the given nets and returns how many nodes were bumped. A return of zero
// means the routing is congestion-free (§V's success condition).
func (s *Session) BumpHistory(nets []*Net) int {
	over := s.OversubscribedIn(nets)
	for _, n := range over {
		s.hist[s.G.DenseKey(n)] += s.HistBump
	}
	return len(over)
}
