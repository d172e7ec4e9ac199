package himap

import (
	"context"
	"fmt"
	"sort"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/mrrg"
	"himap/internal/route"
)

// layout bundles everything step 3 needs: the placed ISDG, the sub-CGRA
// mapping, and the derived geometry.
type layout struct {
	cg      arch.Fabric
	g       *ir.ISDG
	cp      *ClusterPlace
	sub     *SubMapping
	iib     int
	classes []*UniqueClass
	byClust []int
	ix      *nodeIndex

	// pinRel[classIdx][bodyOp] is the region-relative relay resource
	// pinned for a route node (deterministic, so replication is
	// self-consistent even for chains within one class).
	pinRel []map[int]RelPlaceReg
	// loadRel[classIdx][bodyOp] holds the chosen memory-read slots of
	// boundary loads (loads absent from the generic IDFG).
	loadRel []map[int]RelPlace
	// policy is the relay-pin ablation knob (see Options.RelayPolicy).
	policy RelayPolicy
	// costModel, when non-nil, overrides the fabric-derived congestion
	// pricing (differential testing only; see Options.costModel).
	costModel route.CostModel

	// pendBuf/sinkBuf/tgtBuf are arenas reused across every
	// buildClassNets call (one class per call, many calls per congestion
	// round): pending nets, their sinks, and the sink target sets.
	// Sinks and targets are addressed by [lo, hi) index ranges into the
	// shared arenas rather than subslices, so arena growth during
	// construction cannot strand earlier entries on stale backing
	// arrays.
	pendBuf []pendingNet
	sinkBuf []pendingSink
	tgtBuf  []mrrg.Node
}

// RelPlaceReg is a region-relative relay resource for route pins: either
// a register of the anchor PE (Out false) or an output register of a
// neighboring PE pointed at the anchor (Out true) — the classic systolic
// in→out crossbar forwarding, which costs no RF ports.
type RelPlaceReg struct {
	T, R, C int
	Reg     uint8
	Out     bool
	Dir     arch.Dir
	// Mem marks a transparent pin: the route node's producer is a load in
	// the same cluster, so the value is available at the load's memory
	// read port (which can feed the ALU and the crossbar directly, with no
	// RF traffic). T/R/C then hold only the anchor used for load slotting.
	Mem bool
}

// regionBase returns the absolute origin of a cluster's space-time
// region: (CP.t × depth, CP.x × s1, CP.y × s2) — the placement formula of
// Algorithm 1 line 13 (the modulo-II_B wrap is applied at stamping).
func (l *layout) regionBase(ci int) (t, r, c int) {
	return l.cp.T[ci] * l.sub.Depth, l.cp.X[ci] * l.sub.S1, l.cp.Y[ci] * l.sub.S2
}

// nodeAbs returns the absolute placement of a node whose body op was
// placed by MAP (computes and generic loads).
func (l *layout) nodeAbs(id int) (mrrg.Node, bool) {
	n := l.g.DFG.Nodes[id]
	rel, ok := l.sub.Rel[n.BodyOp]
	if !ok {
		return mrrg.Node{}, false
	}
	bt, br, bc := l.regionBase(l.g.ClusterOf(id))
	cl := mrrg.ClassFU
	if rel.Kind == PlaceMemRead {
		cl = mrrg.ClassMemRead
	}
	return mrrg.Node{T: bt + rel.T, R: br + rel.R, C: bc + rel.C, Class: cl}, true
}

// loadAbs returns the absolute memory-read slot of a boundary load.
func (l *layout) loadAbs(id int) (mrrg.Node, bool) {
	ci := l.g.ClusterOf(id)
	rel, ok := l.loadRel[l.byClust[ci]][l.g.DFG.Nodes[id].BodyOp]
	if !ok {
		return mrrg.Node{}, false
	}
	bt, br, bc := l.regionBase(ci)
	return mrrg.Node{T: bt + rel.T, R: br + rel.R, C: bc + rel.C, Class: mrrg.ClassMemRead}, true
}

// pinAbs returns the absolute pinned relay resource of a route node.
func (l *layout) pinAbs(id int) (mrrg.Node, bool) {
	ci := l.g.ClusterOf(id)
	pin, ok := l.pinRel[l.byClust[ci]][l.g.DFG.Nodes[id].BodyOp]
	if !ok {
		return mrrg.Node{}, false
	}
	if pin.Mem {
		// Resolve the producing load of this route instance.
		ins := l.g.DFG.InEdges(id)
		if len(ins) == 0 {
			return mrrg.Node{}, false
		}
		prod := l.g.DFG.Edges[ins[0]].From
		if abs, ok := l.nodeAbs(prod); ok {
			return abs, true
		}
		return l.loadAbs(prod)
	}
	bt, br, bc := l.regionBase(ci)
	// Crossbar pins of clusters at the array edge reach across a wrap
	// link on a torus; fold the coordinate so routing targets the real PE.
	pr, pc := l.cg.WrapCoord(br+pin.R, bc+pin.C)
	if pin.Out {
		return mrrg.Node{T: bt + pin.T, R: pr, C: pc, Class: mrrg.ClassOut, Idx: uint8(pin.Dir)}, true
	}
	return mrrg.Node{T: bt + pin.T, R: pr, C: pc, Class: mrrg.ClassReg, Idx: pin.Reg}, true
}

// computePins chooses the relay register of every route node class:
// anchored at its first placed intra-cluster consumer (or the region
// origin), with a register index rotating over the cluster's route ops.
func (l *layout) computePins() {
	l.pinRel = make([]map[int]RelPlaceReg, len(l.classes))
	for idx, cl := range l.classes {
		pins := map[int]RelPlaceReg{}
		rep := l.g.Clusters[cl.Rep]
		// Stable ordering of route body ops within the cluster.
		var routeOps []int
		seen := map[int]bool{}
		for _, id := range rep.Nodes {
			n := l.g.DFG.Nodes[id]
			if n.Kind == ir.OpRoute && !seen[n.BodyOp] {
				seen[n.BodyOp] = true
				routeOps = append(routeOps, n.BodyOp)
			}
		}
		sort.Ints(routeOps)
		regOf := map[int]uint8{}
		for i, bo := range routeOps {
			regOf[bo] = uint8(i % l.cg.NumRegs)
		}
		for _, id := range rep.Nodes {
			n := l.g.DFG.Nodes[id]
			if n.Kind != ir.OpRoute {
				continue
			}
			if _, done := pins[n.BodyOp]; done {
				continue
			}
			// Anchor: earliest placed consumer within this cluster.
			anchor := RelPlace{T: 0, R: 0, C: 0}
			found := false
			for _, ei := range l.g.DFG.OutEdges(id) {
				to := l.g.DFG.Edges[ei].To
				if l.g.ClusterOf(to) != rep.ID {
					continue
				}
				if rel, ok := l.sub.Rel[l.g.DFG.Nodes[to].BodyOp]; ok {
					if !found || rel.T < anchor.T {
						anchor = rel
						found = true
					}
				}
			}
			pins[n.BodyOp] = l.choosePin(rep, id, anchor, regOf[n.BodyOp])
		}
		l.pinRel[idx] = pins
	}
}

// choosePin selects the relay resource of a route node: when its value
// arrives from another PE, the producer-side output register pointed at
// the anchor (crossbar forwarding, no RF traffic — the classic systolic
// dataflow); otherwise a register of the anchor PE.
func (l *layout) choosePin(rep *ir.Cluster, id int, anchor RelPlace, reg uint8) RelPlaceReg {
	regPin := RelPlaceReg{T: anchor.T, R: anchor.R, C: anchor.C, Reg: reg}
	if l.policy == RelayRegistersOnly {
		return regPin
	}
	ins := l.g.DFG.InEdges(id)
	if len(ins) == 0 {
		return regPin
	}
	prod := l.g.DFG.Edges[ins[0]].From
	pc := l.g.ClusterOf(prod)
	if pc == rep.ID {
		if l.g.DFG.Nodes[prod].Kind == ir.OpLoad {
			// Transparent pin: relay straight off the memory read port.
			return RelPlaceReg{T: anchor.T, R: anchor.R, C: anchor.C, Mem: true}
		}
		return regPin
	}
	dxr := l.cp.X[pc] - l.cp.X[rep.ID]
	dyr := l.cp.Y[pc] - l.cp.Y[rep.ID]
	nR, nC := anchor.R, anchor.C
	var dir arch.Dir
	switch {
	case dxr < 0:
		nR, dir = anchor.R-1, arch.South
	case dxr > 0:
		nR, dir = anchor.R+1, arch.North
	case dyr < 0:
		nC, dir = anchor.C-1, arch.East
	case dyr > 0:
		nC, dir = anchor.C+1, arch.West
	default:
		return regPin // same-PE time dependence: hold in the RF
	}
	// The neighbor must exist on the array for the representative (and by
	// signature equality, for every member). On a wrap-around topology
	// every translated neighbor exists, so only bounded fabrics bail out.
	_, br, bc := l.regionBase(rep.ID)
	if !l.cg.Topology.Wraps() && !l.cg.InBounds(br+nR, bc+nC) {
		return regPin
	}
	return RelPlaceReg{T: anchor.T - 1, R: nR, C: nC, Out: true, Dir: dir}
}

// canonSink is one sink of a canonical net, with everything replication
// needs to translate it onto a class member.
type canonSink struct {
	ConsumerBody  int
	ConsumerDIter ir.IterVec // consumer.Iter - source-cluster rep.Iter
	Port          int
	Kind          ir.OpKind
	Path          route.Path
}

// canonNet is one canonically-routed signal of a class representative.
type canonNet struct {
	SrcID    int // DFG node ID in the rep cluster
	SrcBody  int
	SrcDIter ir.IterVec // source.Iter - rep.Iter (zero: source in rep)
	Src      mrrg.Node
	Sinks    []canonSink
	net      *route.Net
}

// RouteStats reports step-3 effort, demonstrating the block-size
// independence of the canonical routing work.
type RouteStats struct {
	UniqueIters   int
	CanonicalNets int
	Rounds        int
}

// routeCanonical performs Algorithm 1 lines 21-27: routes the minimal
// DFG — one canonical net per (unique class, producer op) — under
// negotiated congestion, returning the per-class net plans that the
// replicate stage stamps onto every cluster. Cancellation is polled
// once per negotiation round: a canceled ctx aborts with an error
// wrapping diag.ErrCanceled within one round's latency.
func (l *layout) routeCanonical(ctx context.Context, maxRounds int) ([][]canonNet, RouteStats, error) {
	g := mrrg.New(l.cg, l.iib)
	ses := route.NewSession(g)
	stats := RouteStats{UniqueIters: len(l.classes)}
	if l.costModel != nil {
		if err := ses.SetCostModel(l.costModel); err != nil {
			return nil, stats, err
		}
	}
	// Provable-infeasibility pre-check: on bandwidth-constrained fabrics,
	// forced link departures of the placed schedule are counted against
	// the fabric's lanes before any congestion negotiation is attempted.
	if err := l.checkBandwidth(); err != nil {
		return nil, stats, err
	}
	l.computePins()
	l.loadRel = make([]map[int]RelPlace, len(l.classes))
	for i := range l.loadRel {
		l.loadRel[i] = map[int]RelPlace{}
	}

	var plans [][]canonNet
	var allNets []*route.Net
	var roundErr error
	for round := 0; round < maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, fmt.Errorf("himap: %w: %v", diag.ErrCanceled, err)
		}
		stats.Rounds = round + 1
		ses.ResetKeepHistory()
		for i := range l.loadRel {
			l.loadRel[i] = map[int]RelPlace{}
		}
		// Nothing references a dropped round's nets once its history is
		// bumped — recycle their storage so later rounds re-route
		// allocation-free.
		for _, nets := range plans {
			for i := range nets {
				ses.FreeNet(nets[i].net)
			}
		}
		plans = plans[:0]
		roundErr = nil

		// Reserve every cluster's fixed placements (FUs and generic loads).
		for _, n := range l.g.DFG.Nodes {
			if abs, ok := l.nodeAbs(n.ID); ok {
				ses.Reserve(abs)
			}
		}

		allNets = allNets[:0]
		for classIdx, cl := range l.classes {
			rep := cl.Rep
			bt, br, bc := l.regionBase(rep)
			nets, err := l.routeClass(ses, g, classIdx, cl)
			if err != nil {
				roundErr = fmt.Errorf("class %d (rep %v): %w", classIdx, l.g.Clusters[cl.Rep].Iter, err)
				break
			}
			plans = append(plans, nets)
			for i := range nets {
				allNets = append(allNets, nets[i].net)
			}
			// Charge the replicas of this class (routes and boundary-load
			// slots) so later classes see the real congestion.
			for _, m := range cl.Members {
				if m == rep {
					continue
				}
				mt, mr, mc := l.regionBase(m)
				dt, dr, dc := mt-bt, mr-br, mc-bc
				for i := range nets {
					ses.ChargeShifted(nets[i].net, dt, dr, dc)
				}
				for _, lr := range l.loadRel[classIdx] {
					ses.Reserve(mrrg.Node{T: mt + lr.T, R: mr + lr.R, C: mc + lr.C, Class: mrrg.ClassMemRead})
				}
			}
		}
		if roundErr != nil {
			// Escalate costs where the failure occurred and retry.
			if ses.BumpHistory(allNets) == 0 {
				return nil, stats, roundErr
			}
			continue
		}
		if over := ses.OversubscribedIn(allNets); len(over) > 0 {
			ses.BumpHistory(allNets)
			show := over
			if len(show) > 4 {
				show = show[:4]
			}
			roundErr = fmt.Errorf("himap: %d resources oversubscribed (e.g. %v): %w", len(over), show, diag.ErrRouteCongested)
			continue
		}
		break
	}
	if roundErr != nil {
		return nil, stats, roundErr
	}
	for _, nets := range plans {
		stats.CanonicalNets += len(nets)
	}
	return plans, stats, nil
}

// classEnvelope returns the spatial window (in the representative's
// coordinates) that stays on-array under every member's translation: a
// canonical path confined to it can be replicated verbatim everywhere.
func (l *layout) classEnvelope(cl *UniqueClass) (rMin, rMax, cMin, cMax int) {
	if l.cg.Topology.Wraps() {
		// Wrap-around links make every translation a graph automorphism:
		// a path that leaves one edge re-enters the opposite one, so the
		// canonical route replicates verbatim from anywhere on the array.
		return 0, l.cg.Rows - 1, 0, l.cg.Cols - 1
	}
	_, br, bc := l.regionBase(cl.Rep)
	drMin, drMax, dcMin, dcMax := 0, 0, 0, 0
	for _, m := range cl.Members {
		_, mr, mc := l.regionBase(m)
		dr, dc := mr-br, mc-bc
		if dr < drMin {
			drMin = dr
		}
		if dr > drMax {
			drMax = dr
		}
		if dc < dcMin {
			dcMin = dc
		}
		if dc > dcMax {
			dcMax = dc
		}
	}
	return -drMin, l.cg.Rows - 1 - drMax, -dcMin, l.cg.Cols - 1 - dcMax
}

// routeClass routes the canonical nets of one class representative.
func (l *layout) routeClass(ses *route.Session, g *mrrg.Graph, classIdx int, cl *UniqueClass) ([]canonNet, error) {
	d := l.g.DFG
	rep := l.g.Clusters[cl.Rep]
	rMin, rMax, cMin, cMax := l.classEnvelope(cl)
	env := &route.Rect{R0: rMin, R1: rMax, C0: cMin, C1: cMax}
	ses.Envelope = env
	defer func() { ses.Envelope = nil }()

	// Choose memory slots for boundary loads first (they act as sources).
	for _, id := range rep.Nodes {
		n := d.Nodes[id]
		if n.Kind != ir.OpLoad {
			continue
		}
		if _, generic := l.sub.Rel[n.BodyOp]; generic {
			continue
		}
		if err := l.chooseBoundaryLoad(ses, classIdx, id); err != nil {
			return nil, err
		}
	}

	// Build every net and its sink target sets up front (target
	// construction reads placement geometry only, never occupancy), then
	// route. A construction failure still routes the nets built before it
	// — routing errors are sequentially earlier, so they win; either way
	// the session carries exactly the occupancy the historical
	// interleaved loop left behind.
	pend, buildErr := l.buildClassNets(ses, g, cl, env)
	for i := range pend {
		if err := l.routeNet(ses, &pend[i]); err != nil {
			return nil, err
		}
	}
	if buildErr != nil {
		return nil, buildErr
	}
	nets := make([]canonNet, len(pend))
	for i := range pend {
		nets[i] = pend[i].cn
	}
	return nets, nil
}

// pendingSink is one fully-constructed sink of a pending net: its target
// set (the [tgt0, tgt1) range of the layout's target arena) plus the
// replication metadata.
type pendingSink struct {
	tgt0, tgt1 int
	meta       canonSink
	fromName   string
	toName     string
}

// pendingNet is a canonical net with every sink target constructed but
// nothing routed yet; its sinks are the [sink0, sink1) range of the
// layout's sink arena.
type pendingNet struct {
	cn           canonNet
	sink0, sink1 int
}

// buildClassNets constructs the pending nets of one class representative
// in canonical order. On a construction error it returns the nets built
// so far — including the partially-built failing net, whose earlier
// sinks the historical loop had already routed — alongside the error.
func (l *layout) buildClassNets(ses *route.Session, g *mrrg.Graph, cl *UniqueClass, env *route.Rect) ([]pendingNet, error) {
	pend, err := l.buildClassNetsInto(l.pendBuf[:0], ses, g, cl, env)
	l.pendBuf = pend // keep the grown backing array for the next class
	return pend, err
}

// filterTgtArena drops the out-of-envelope nodes of the target arena's
// tail [t0:] in place.
func (l *layout) filterTgtArena(t0 int, env *route.Rect) {
	out := l.tgtBuf[:t0]
	for _, n := range l.tgtBuf[t0:] {
		if env.Contains(n.R, n.C) {
			out = append(out, n)
		}
	}
	l.tgtBuf = out
}

func (l *layout) buildClassNetsInto(pend []pendingNet, ses *route.Session, g *mrrg.Graph, cl *UniqueClass, env *route.Rect) ([]pendingNet, error) {
	d := l.g.DFG
	rep := l.g.Clusters[cl.Rep]
	l.sinkBuf = l.sinkBuf[:0]
	l.tgtBuf = l.tgtBuf[:0]
	for _, id := range rep.Nodes {
		n := d.Nodes[id]
		if len(d.OutEdges(id)) == 0 {
			continue
		}
		var src mrrg.Node
		switch {
		case n.Kind.IsCompute():
			src, _ = l.nodeAbs(id)
		case n.Kind == ir.OpLoad:
			if abs, ok := l.nodeAbs(id); ok {
				src = abs
			} else if abs, ok := l.loadAbs(id); ok {
				src = abs
			} else {
				return pend, fmt.Errorf("himap: load %v has no placement: %w", n, diag.ErrPlacementInfeasible)
			}
		case n.Kind == ir.OpRoute:
			pin, ok := l.pinAbs(id)
			if !ok {
				return pend, fmt.Errorf("himap: route %v has no pin: %w", n, diag.ErrPlacementInfeasible)
			}
			src = pin
		default:
			continue // stores have no out-edges
		}
		p := pendingNet{
			cn: canonNet{
				SrcID: id, SrcBody: n.BodyOp,
				SrcDIter: n.Iter.Sub(rep.Iter),
				Src:      src,
				net:      ses.NewNet(src),
			},
			sink0: len(l.sinkBuf), sink1: len(l.sinkBuf),
		}
		for _, ei := range d.OutEdges(id) {
			e := d.Edges[ei]
			to := d.Nodes[e.To]
			t0 := len(l.tgtBuf)
			var err error
			switch {
			case to.Kind.IsCompute():
				abs, ok := l.nodeAbs(e.To)
				if !ok {
					err = fmt.Errorf("himap: consumer %v unplaced: %w", to, diag.ErrPlacementInfeasible)
					break
				}
				l.tgtBuf = g.AppendOperandTargets(l.tgtBuf, abs.T, abs.R, abs.C)
				l.filterTgtArena(t0, env)
			case to.Kind == ir.OpRoute:
				pin, ok := l.pinAbs(e.To)
				if !ok {
					err = fmt.Errorf("himap: route consumer %v has no pin: %w", to, diag.ErrPlacementInfeasible)
					break
				}
				l.tgtBuf = append(l.tgtBuf, pin)
			case to.Kind == ir.OpStore:
				l.tgtBuf = l.appendStoreTargets(l.tgtBuf, g, e.To, src.T)
				l.filterTgtArena(t0, env)
				if len(l.tgtBuf) == t0 && l.cg.Mem != arch.MemAll {
					err = diag.Failf(diag.ErrMemPortInfeasible,
						"himap: no memory-write port reachable for store %s within its region on the %s fabric", to.Name, l.cg)
				}
			default:
				err = fmt.Errorf("himap: bad consumer kind %v: %w", to.Kind, diag.ErrPlacementInfeasible)
			}
			if err == nil && len(l.tgtBuf) == t0 {
				err = fmt.Errorf("himap: no replicable delivery for %s -> %s (class envelope too tight): %w", n.Name, to.Name, diag.ErrReplicaConflict)
			}
			if err != nil {
				p.sink1 = len(l.sinkBuf)
				pend = append(pend, p)
				return pend, err
			}
			l.sinkBuf = append(l.sinkBuf, pendingSink{
				tgt0:     t0,
				tgt1:     len(l.tgtBuf),
				fromName: n.Name,
				toName:   to.Name,
				meta: canonSink{
					ConsumerBody:  to.BodyOp,
					ConsumerDIter: to.Iter.Sub(rep.Iter),
					Port:          e.ToPort,
					Kind:          to.Kind,
				},
			})
		}
		p.sink1 = len(l.sinkBuf)
		pend = append(pend, p)
	}
	return pend, nil
}

// routeNet routes every sink of one pending net, in order, committing
// paths into the session's occupancy as it goes.
func (l *layout) routeNet(ses *route.Session, p *pendingNet) error {
	for si := p.sink0; si < p.sink1; si++ {
		s := &l.sinkBuf[si]
		path, _, err := ses.RouteSink(p.cn.net, l.tgtBuf[s.tgt0:s.tgt1])
		if err != nil {
			return fmt.Errorf("net %s -> %s: %w", s.fromName, s.toName, err)
		}
		s.meta.Path = path
		p.cn.Sinks = append(p.cn.Sinks, s.meta)
	}
	return nil
}

// appendStoreTargets appends candidate memory write ports for a store
// node to dst: any cycle of its cluster's region window at or after the
// producer.
func (l *layout) appendStoreTargets(dst []mrrg.Node, g *mrrg.Graph, id int, fromT int) []mrrg.Node {
	ci := l.g.ClusterOf(id)
	bt, br, bc := l.regionBase(ci)
	out := dst
	lo := fromT
	if bt > lo {
		lo = bt
	}
	for t := lo; t < lo+2*l.sub.Depth; t++ {
		for r := br; r < br+l.sub.S1; r++ {
			for c := bc; c < bc+l.sub.S2; c++ {
				if !l.cg.MemCapable(r, c) {
					continue
				}
				out = append(out, g.MemWriteNode(t, r, c))
			}
		}
	}
	return out
}

// chooseBoundaryLoad picks a memory-read slot for a load that has no
// generic relative placement: on its first consumer's PE, at the latest
// free cycle not after the consumer.
func (l *layout) chooseBoundaryLoad(ses *route.Session, classIdx, id int) error {
	d := l.g.DFG
	n := d.Nodes[id]
	ci := l.g.ClusterOf(id)
	bt, br, bc := l.regionBase(ci)
	// Anchor on the first consumer.
	consT, consR, consC := bt, br, bc
	slack := 0
	for _, ei := range d.OutEdges(id) {
		to := d.Edges[ei].To
		tn := d.Nodes[to]
		if abs, ok := l.nodeAbs(to); ok {
			consT, consR, consC = abs.T, abs.R, abs.C
			break
		}
		if tn.Kind == ir.OpRoute {
			pinRel, ok := l.pinRel[classIdx][tn.BodyOp]
			if ok && pinRel.Mem {
				// Transparent pin: the load itself is the relay; schedule it
				// at the route's anchor so the ALU can consume FromMem.
				bt2, br2, bc2 := l.regionBase(ci)
				consT, consR, consC = bt2+pinRel.T, br2+pinRel.R, bc2+pinRel.C
				break
			}
			if pin, ok2 := l.pinAbs(to); ok2 {
				consT, consR, consC = pin.T, pin.R, pin.C
				slack = 1 // reaching a register pin takes at least one cycle
				break
			}
		}
	}
	// Negative real cycles wrap into the previous schedule period — in
	// steady state the load simply issues during the preceding block's
	// window (classic software pipelining).
	if l.cg.MemCapable(consR, consC) {
		for back := slack; back < 3*l.sub.Depth; back++ {
			t := consT - back
			mr := mrrg.Node{T: t, R: consR, C: consC, Class: mrrg.ClassMemRead}
			if ses.Occ(mr) > 0 {
				continue
			}
			ses.Reserve(mr)
			l.loadRel[classIdx][n.BodyOp] = RelPlace{T: t - bt, R: consR - br, C: consC - bc, Kind: PlaceMemRead}
			return nil
		}
		return fmt.Errorf("himap: no memory-read slot for boundary load %v: %w: %w", n, diag.ErrMemPortInfeasible, diag.ErrRouteCongested)
	}
	// The consumer sits on a compute-only PE: issue the load on the
	// nearest memory-capable PE of the cluster's region, early enough for
	// the value to cover the Manhattan distance to the consumer.
	for _, pe := range memPEsByDist(l.cg, consR, consC) {
		r, c := pe[0], pe[1]
		if r < br || r >= br+l.sub.S1 || c < bc || c >= bc+l.sub.S2 {
			continue
		}
		lo := absInt(r-consR) + absInt(c-consC)
		if slack > lo {
			lo = slack
		}
		for back := lo; back < 3*l.sub.Depth; back++ {
			t := consT - back
			mr := mrrg.Node{T: t, R: r, C: c, Class: mrrg.ClassMemRead}
			if ses.Occ(mr) > 0 {
				continue
			}
			ses.Reserve(mr)
			l.loadRel[classIdx][n.BodyOp] = RelPlace{T: t - bt, R: r - br, C: c - bc, Kind: PlaceMemRead}
			return nil
		}
	}
	return diag.Failf(diag.ErrMemPortInfeasible,
		"himap: no memory-read slot for boundary load %v on the %s fabric", n, l.cg)
}

// replicate stamps every class's canonical placements and routes onto all
// of its member clusters (Algorithm 1 line 29), with full conflict
// detection. Final configuration validation is the pipeline's validate
// stage (Config.Validate), not replicate's job.
func (l *layout) replicate(plans [][]canonNet) (*arch.Config, error) {
	cfg := arch.NewConfig(l.cg, l.iib)
	em := route.NewEmitter(cfg)
	d := l.g.DFG

	// Stamp operation placements for every cluster.
	for _, n := range d.Nodes {
		tag := route.ValueTag(n.ID)
		switch {
		case n.Kind.IsCompute():
			abs, _ := l.nodeAbs(n.ID)
			if err := em.PlaceOp(abs, n.Kind, tag); err != nil {
				return nil, err
			}
			if n.HasConst {
				if err := em.SetConstOperand(abs, n.Const, route.OperandTag(n.ID)); err != nil {
					return nil, err
				}
			}
		case n.Kind == ir.OpLoad:
			abs, ok := l.nodeAbs(n.ID)
			if !ok {
				abs, ok = l.loadAbs(n.ID)
				if !ok {
					return nil, fmt.Errorf("himap: load %v unplaced at replication: %w", n, diag.ErrPlacementInfeasible)
				}
			}
			elem := ir.ElemTag(n.Tensor, n.Index)
			if err := em.PlaceLoad(abs, tag, elem); err != nil {
				return nil, err
			}
			cfg.Loads = append(cfg.Loads, arch.IOSpec{
				R: abs.R, C: abs.C,
				Slot:   wrapMod(abs.T, l.iib),
				Phase:  floorDiv(abs.T, l.iib),
				Tensor: n.Tensor,
				Index:  append([]int(nil), n.Index...),
			})
		}
	}

	// Stamp canonical routes, translated to every member. Each (member,
	// canonical net) stamping is one routed tree for the emitter; the
	// translated path buffer is reused (the emitter keeps no reference).
	var shifted route.Path
	for classIdx, cl := range l.classes {
		for _, m := range cl.Members {
			mc := l.g.Clusters[m]
			dt := (l.cp.T[m] - l.cp.T[cl.Rep]) * l.sub.Depth
			dr := (l.cp.X[m] - l.cp.X[cl.Rep]) * l.sub.S1
			dc := (l.cp.Y[m] - l.cp.Y[cl.Rep]) * l.sub.S2
			for _, cn := range plans[classIdx] {
				srcID, ok := l.ix.Find(cn.SrcBody, mc.Iter, cn.SrcDIter)
				if !ok {
					return nil, fmt.Errorf("himap: replication cannot find source (body %d) for member %v: %w", cn.SrcBody, mc.Iter, diag.ErrReplicaConflict)
				}
				tag := route.ValueTag(srcID)
				em.BeginNet()
				for _, sink := range cn.Sinks {
					shifted = shifted[:0]
					for _, pn := range sink.Path {
						sn := pn.Shifted(dt, dr, dc)
						// On a torus the translate of an edge-crossing path
						// re-enters the array; fold it onto the real PEs.
						sn.R, sn.C = l.cg.WrapCoord(sn.R, sn.C)
						shifted = append(shifted, sn)
					}
					consID, ok := l.ix.Find(sink.ConsumerBody, mc.Iter, sink.ConsumerDIter)
					if !ok {
						return nil, fmt.Errorf("himap: replication cannot find consumer (body %d) for member %v: %w", sink.ConsumerBody, mc.Iter, diag.ErrReplicaConflict)
					}
					storeElem := ""
					if sink.Kind == ir.OpStore {
						sn := d.Nodes[consID]
						storeElem = ir.ElemTag(sn.Tensor, sn.Index)
						last := shifted[len(shifted)-1]
						cfg.Stores = append(cfg.Stores, arch.IOSpec{
							R: last.R, C: last.C,
							Slot:   wrapMod(last.T, l.iib),
							Phase:  floorDiv(last.T, l.iib),
							Tensor: sn.Tensor,
							Index:  append([]int(nil), sn.Index...),
						})
					}
					if err := em.EmitPath(shifted, tag, storeElem); err != nil {
						return nil, fmt.Errorf("himap: replication conflict (class %d member %v): %w", classIdx, mc.Iter, err)
					}
					if sink.Kind.IsCompute() {
						abs, _ := l.nodeAbs(consID)
						if err := em.SetOperand(abs, sink.Port, shifted, tag); err != nil {
							return nil, fmt.Errorf("himap: operand conflict (class %d member %v): %w", classIdx, mc.Iter, err)
						}
					}
				}
			}
		}
	}

	return cfg, nil
}

// wrapMod folds t into [0, m).
func wrapMod(t, m int) int { return ((t % m) + m) % m }

// floorDiv is floor(t / m) for positive m.
func floorDiv(t, m int) int {
	return (t - wrapMod(t, m)) / m
}
