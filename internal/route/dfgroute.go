package route

import (
	"context"
	"fmt"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/mrrg"
)

// Placement assigns one DFG node a slot in the time-extended fabric: real
// (unwrapped) cycle T and PE coordinates (R, C). Placement backends — the
// conventional SA mapper and the exact branch-and-bound mapper — decide
// these slots; RouteDFG decides the wires.
type Placement struct {
	T, R, C int
}

// RouteDFG performs detailed routing of every edge of a placed block DFG
// over the fabric's MRRG at the given II and emits the validated
// configuration. pl[i] is the slot of d.Nodes[i]: loads claim the PE's
// memory read port, stores its write port, everything else the FU. rounds
// bounds the PathFinder negotiated-congestion iterations; on unresolved
// congestion the error wraps diag.ErrRouteCongested. Cancellation is
// polled once per negotiation round: a canceled ctx fails the route
// with an error wrapping diag.ErrCanceled within one round's latency.
//
// The routed net order (topological producer order, sinks in out-edge
// order) and the emitted tags (ValueTag of each node ID, rendered "n<id>"
// in provenance comments) are part of the deterministic output contract:
// callers' mapping fingerprints depend on them.
func RouteDFG(ctx context.Context, d *ir.DFG, cg arch.Fabric, ii int, pl []Placement, rounds int) (*arch.Config, error) {
	g := mrrg.New(cg, ii)
	placeNode := func(id int) mrrg.Node {
		n := d.Nodes[id]
		p := pl[id]
		switch n.Kind {
		case ir.OpLoad:
			return g.MemReadNode(p.T, p.R, p.C)
		case ir.OpStore:
			return g.MemWriteNode(p.T, p.R, p.C)
		default:
			return g.FUNode(p.T, p.R, p.C)
		}
	}
	ses := NewSession(g)
	order, _ := d.TopoOrder()

	var nets []*Net
	netOf := make([]*Net, len(d.Nodes))
	routeAll := func() error {
		for _, id := range order {
			n := d.Nodes[id]
			if n.Kind == ir.OpStore || len(d.OutEdges(id)) == 0 {
				continue
			}
			net := ses.NewNet(placeNode(id))
			netOf[id] = net
			nets = append(nets, net)
			for _, ei := range d.OutEdges(id) {
				e := d.Edges[ei]
				to := d.Nodes[e.To]
				var targets []mrrg.Node
				if to.Kind == ir.OpStore {
					targets = []mrrg.Node{placeNode(e.To)}
				} else {
					cp := pl[e.To]
					targets = g.OperandTargets(cp.T, cp.R, cp.C)
				}
				if _, _, err := ses.RouteSink(net, targets); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, id := range order {
		if d.Nodes[id].Kind == ir.OpStore {
			continue // the producer's routed path claims the write port
		}
		ses.Reserve(placeNode(id))
	}
	ok := false
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("route: %w: %v", diag.ErrCanceled, err)
		}
		for _, net := range nets {
			ses.Release(net)
		}
		nets = nets[:0]
		if err := routeAll(); err != nil {
			return nil, err
		}
		if ses.BumpHistory(nets) == 0 {
			ok = true
			break
		}
	}
	if !ok {
		return nil, fmt.Errorf("route: %w at II %d", diag.ErrRouteCongested, ii)
	}

	cfg := arch.NewConfig(cg, ii)
	em := NewEmitter(cfg)
	for _, id := range order {
		n := d.Nodes[id]
		tag := ValueTag(id)
		pn := placeNode(id)
		switch {
		case n.Kind.IsCompute():
			if err := em.PlaceOp(pn, n.Kind, tag); err != nil {
				return nil, err
			}
			if n.HasConst {
				if err := em.SetConstOperand(pn, n.Const, OperandTag(id)); err != nil {
					return nil, err
				}
			}
		case n.Kind == ir.OpRoute:
			// A flat placement backend has no routing pseudo-ops: data
			// propagation occupies an FU as a move (add #0).
			if err := em.PlaceOp(pn, ir.OpAdd, tag); err != nil {
				return nil, err
			}
			if err := em.SetConstOperand(pn, 0, OperandTag(id)); err != nil {
				return nil, err
			}
		case n.Kind == ir.OpLoad:
			if err := em.PlaceLoad(pn, tag, n.Tensor); err != nil {
				return nil, err
			}
			cfg.Loads = append(cfg.Loads, arch.IOSpec{
				R: pn.R, C: pn.C,
				Slot:   ((pn.T % ii) + ii) % ii,
				Phase:  floorDivRoute(pn.T, ii),
				Tensor: n.Tensor, Index: append([]int(nil), n.Index...),
			})
		}
	}
	for _, id := range order {
		net := netOf[id]
		if net == nil {
			continue
		}
		tag := ValueTag(id)
		em.BeginNet()
		outs := d.OutEdges(id)
		for i, path := range net.Paths {
			e := d.Edges[outs[i]]
			to := d.Nodes[e.To]
			storeElem := ""
			if to.Kind == ir.OpStore {
				storeElem = ir.ElemTag(to.Tensor, to.Index)
				last := path[len(path)-1]
				cfg.Stores = append(cfg.Stores, arch.IOSpec{
					R: last.R, C: last.C,
					Slot:   ((last.T % ii) + ii) % ii,
					Phase:  floorDivRoute(last.T, ii),
					Tensor: to.Tensor, Index: append([]int(nil), to.Index...),
				})
			}
			if err := em.EmitPath(path, tag, storeElem); err != nil {
				return nil, err
			}
			if to.Kind.IsCompute() || to.Kind == ir.OpRoute {
				if err := em.SetOperand(placeNode(e.To), e.ToPort, path, tag); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

func floorDivRoute(t, m int) int {
	w := ((t % m) + m) % m
	return (t - w) / m
}
