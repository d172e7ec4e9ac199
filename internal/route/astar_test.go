package route

import (
	"fmt"
	"reflect"
	"testing"

	"himap/internal/arch"
	"himap/internal/mrrg"
)

// lcg is a tiny deterministic generator so the property trials are
// reproducible without the stdlib rand dependency surface.
type lcg uint64

func (r *lcg) next(n int) int {
	*r = *r*6364136223846793005 + 1442695040888963407
	return int(uint64(*r>>33) % uint64(n))
}

// refSearch is the reference the router's A* core is checked against: a
// plain Dijkstra over one global binary heap in (cost, RealKey) order,
// expanding G.Succ and pricing with enterCost, that returns the first
// target it pops. Owned nodes (the net's source and committed paths, up
// to the last target cycle) are zero-cost seeds; the Envelope confines
// relaxed nodes; a search that closes more than MaxVisits nodes fails
// with ErrSearchLimit. The found path is committed to the net and the
// session occupancy exactly as RouteSink commits it, so successive sinks
// see the same state. It indexes nodes by RealKey in maps — no window,
// no heuristic, no bucket queue.
func refSearch(s *Session, net *Net, targets []mrrg.Node) (Path, float64, error) {
	if len(targets) == 0 {
		return nil, 0, fmt.Errorf("route: %w: no targets", ErrNoPath)
	}
	maxT := targets[0].T
	isTarget := map[uint64]bool{}
	for _, t := range targets {
		maxT = max(maxT, t.T)
		isTarget[mrrg.RealKey(t)] = true
	}
	type entry struct {
		node          mrrg.Node
		dist          float64
		parent        int // index into nodes; -1 for seeds
		owned, closed bool
	}
	var nodes []entry
	index := map[uint64]int{}
	var frontier minHeap
	seed := func(n mrrg.Node) {
		if n.T > maxT {
			return
		}
		k := mrrg.RealKey(n)
		i, ok := index[k]
		if !ok {
			i = len(nodes)
			index[k] = i
			nodes = append(nodes, entry{node: n})
		}
		nodes[i].owned, nodes[i].dist, nodes[i].parent = true, 0, -1
		frontier.push(heapItem{cost: 0, key: k, idx: int32(i)})
	}
	seed(net.Src)
	for _, p := range net.Paths {
		for _, n := range p {
			seed(n)
		}
	}
	visits := 0
	for len(frontier) > 0 {
		it := frontier.pop()
		cur := int(it.idx)
		if nodes[cur].closed {
			continue
		}
		nodes[cur].closed = true
		visits++
		if visits > s.MaxVisits {
			return nil, 0, fmt.Errorf("route: %w (limit %d)", ErrSearchLimit, s.MaxVisits)
		}
		if isTarget[it.key] {
			var path Path
			for i := cur; i >= 0; i = nodes[i].parent {
				path = append(Path{nodes[i].node}, path...)
			}
			s.commit(net, path)
			return path, it.cost, nil
		}
		s.G.Succ(nodes[cur].node, func(m mrrg.Node) {
			if m.T > maxT {
				return
			}
			if env := s.Envelope; env != nil && !env.Contains(m.R, m.C) {
				return
			}
			k := mrrg.RealKey(m)
			j, seen := index[k]
			if seen && nodes[j].closed {
				return
			}
			nd := it.cost
			if !seen || !nodes[j].owned {
				nd += s.enterCost(m)
			}
			if !seen {
				j = len(nodes)
				index[k] = j
				nodes = append(nodes, entry{node: m, dist: nd, parent: cur})
			} else if nd < nodes[j].dist {
				nodes[j].dist, nodes[j].parent = nd, cur
			} else {
				return
			}
			frontier.push(heapItem{cost: nd, key: k, idx: int32(j)})
		})
	}
	return nil, 0, fmt.Errorf("route: %w from net %d (src %v) to %v", ErrNoPath, net.ID, net.Src, targets[0])
}

// TestSearchEquivalenceRandomizedCongestion is the router-core property
// test: on mesh and torus fabrics, under randomized occupancy and
// history costs, the A*+bucket-queue search must return exactly the
// path, cost, and error the reference Dijkstra (refSearch) returns — the
// bit-identity contract exercised far beyond the kernel corpus. Every
// other trial confines both searches to a random Envelope; on the 16x16
// mesh the A* scratch window is also clipped to the targets' reach,
// while the reference indexes every node it relaxes.
func TestSearchEquivalenceRandomizedCongestion(t *testing.T) {
	rng := lcg(0x9e3779b97f4a7c15)
	for _, topo := range []arch.Topology{arch.TopoMesh, arch.TopoTorus} {
		for _, sz := range [][2]int{{3, 3}, {4, 6}, {8, 8}, {16, 16}} {
			f := arch.Fabric{CGRA: arch.Default(sz[0], sz[1]), Topology: topo}
			const ii = 8
			g := mrrg.New(f, ii)
			old := NewSession(g)
			new_ := NewSession(g)
			for trial := 0; trial < 50; trial++ {
				old.Reset()
				new_.Reset()
				// Random congestion: reserved output ports raise present-
				// sharing penalties; history bumps mimic prior rounds.
				for i := 0; i < 5*f.NumPEs(); i++ {
					n := mrrg.Node{
						T: rng.next(ii), R: rng.next(f.Rows), C: rng.next(f.Cols),
						Class: mrrg.ClassOut, Idx: uint8(rng.next(f.NumLinkDirs())),
					}
					old.Reserve(n)
					new_.Reserve(n)
				}
				for i := 0; i < 2*f.NumPEs(); i++ {
					n := mrrg.Node{
						T: rng.next(ii), R: rng.next(f.Rows), C: rng.next(f.Cols),
						Class: mrrg.ClassReg, Idx: uint8(rng.next(f.NumRegs)),
					}
					k := g.DenseKey(n)
					old.hist[k] += old.HistBump
					new_.hist[k] += new_.HistBump
				}
				src := fu(rng.next(ii), rng.next(f.Rows), rng.next(f.Cols))
				var env *Rect
				if trial%2 == 1 { // a random envelope around the source
					env = &Rect{
						R0: rng.next(src.R + 1), R1: src.R + rng.next(f.Rows-src.R),
						C0: rng.next(src.C + 1), C1: src.C + rng.next(f.Cols-src.C),
					}
				}
				old.Envelope, new_.Envelope = env, env
				old.Reserve(src)
				new_.Reserve(src)
				oldNet := old.NewNet(src)
				newNet := new_.NewNet(src)
				// Two sinks per net, so the second search also exercises
				// zero-cost reuse of the first sink's owned nodes.
				for sink := 0; sink < 2; sink++ {
					dt := 1 + rng.next(6)
					targets := g.OperandTargets(src.T+dt, rng.next(f.Rows), rng.next(f.Cols))
					op, oc, oerr := refSearch(old, oldNet, targets)
					np, nc, nerr := new_.RouteSink(newNet, targets)
					if (oerr == nil) != (nerr == nil) {
						t.Fatalf("%s %v trial %d sink %d: Dijkstra err %v, A* err %v",
							topo, sz, trial, sink, oerr, nerr)
					}
					if oerr != nil {
						continue
					}
					if oc != nc {
						t.Fatalf("%s %v trial %d sink %d: cost %v (Dijkstra) != %v (A*)",
							topo, sz, trial, sink, oc, nc)
					}
					if !reflect.DeepEqual(op, np) {
						t.Fatalf("%s %v trial %d sink %d:\nDijkstra %v\nA*       %v",
							topo, sz, trial, sink, op, np)
					}
				}
			}
		}
	}
}

// TestTorusHeuristicNeverOverestimates checks admissibility directly on
// wrap-around fabrics: for random uncongested instances, the A* lower
// bound at the source — and at every node of the optimal path, against
// that node's true cost-to-go (shortest-path suffixes are shortest
// paths) — must not exceed the exact cost refSearch finds.
func TestTorusHeuristicNeverOverestimates(t *testing.T) {
	rng := lcg(1)
	for _, sz := range [][2]int{{3, 3}, {4, 6}, {8, 8}} {
		f := arch.Fabric{CGRA: arch.Default(sz[0], sz[1]), Topology: arch.TopoTorus}
		const ii = 8
		g := mrrg.New(f, ii)
		s := NewSession(g)
		ref := NewSession(g) // stays empty: enterCost = uncongested base cost
		for trial := 0; trial < 100; trial++ {
			s.Reset()
			src := fu(rng.next(ii), rng.next(f.Rows), rng.next(f.Cols))
			s.Reserve(src)
			net := s.NewNet(src)
			dt := 1 + rng.next(6)
			targets := g.OperandTargets(src.T+dt, rng.next(f.Rows), rng.next(f.Cols))
			path, cost, err := refSearch(s, net, targets) // exact costs, no heuristic
			if err != nil {
				continue
			}
			tBase, maxT := src.T, src.T
			for _, tg := range targets {
				if tg.T < tBase {
					tBase = tg.T
				}
				if tg.T > maxT {
					maxT = tg.T
				}
			}
			w := window{tBase: tBase, maxT: maxT, rows: f.Rows, cols: f.Cols, slots: g.SlotsPerPE()}
			var sc scratch
			sc.begin(w.numPEs()*w.slots, w.numPEs())
			// Suffix costs along the optimal path are exact costs-to-go.
			for i := 0; i < len(path); i++ {
				togo := 0.0
				for j := i + 1; j < len(path); j++ {
					togo += ref.enterCost(path[j])
				}
				h := s.heuristicAt(&sc, path[i], w.pe(path[i]), targets)
				if h < 0 {
					t.Fatalf("%v trial %d: heuristic pruned path node %v with cost-to-go %v",
						sz, trial, path[i], togo)
				}
				if h > togo+1e-9 {
					t.Fatalf("%v trial %d: heuristic at %v overestimates: h = %v > cost-to-go %v (total %v)",
						sz, trial, path[i], h, togo, cost)
				}
			}
		}
	}
}
