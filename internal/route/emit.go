package route

import (
	"fmt"
	"himap/internal/diag"
	"strconv"

	"himap/internal/arch"
	"himap/internal/ir"
	"himap/internal/mrrg"
)

// Tag identifies the value a stamped field carries. Tags derive from DFG
// node IDs: ValueTag(id) is node id's result, OperandTag(id) its
// immediate operand (a constant, or the #0 of a move). Conflict checks
// compare tags as integers; names are rendered only for provenance
// comments and conflict messages.
type Tag int32

// ValueTag is the tag of the value DFG node id produces.
func ValueTag(id int) Tag { return Tag(id) << 1 }

// OperandTag is the tag of DFG node id's immediate operand.
func OperandTag(id int) Tag { return Tag(id)<<1 | 1 }

// String renders the tag as "n<ID>" or "n<ID>:const".
func (t Tag) String() string {
	var buf [24]byte
	b := strconv.AppendInt(append(buf[:0], 'n'), int64(t>>1), 10)
	if t&1 != 0 {
		b = append(b, ":const"...)
	}
	return string(b)
}

// Emitter lowers placements and routed paths into a CGRA configuration,
// detecting resource conflicts as it stamps fields. Every stamped field
// carries a value tag (the absolute identity of the carried value);
// stamping the same field twice with the same tag and contents is
// idempotent — which is exactly what HiMap's REPLICATE step relies on —
// while differing tags or contents are conflicts.
type Emitter struct {
	Cfg *arch.Config
	// owner[resKey] is the claiming tag + 1; 0 marks a free resource.
	owner []int32
	// pred remembers which node fed each emitted path node of the current
	// net (see BeginNet). Fanout paths of a net may start anywhere in the
	// net's already-routed tree; the predecessor context (e.g. which
	// register feeds an RF read) comes from here.
	pred []predEntry
}

type predEntry struct {
	key  uint64
	node mrrg.Node
}

// NewEmitter wraps a configuration for conflict-checked emission.
func NewEmitter(cfg *arch.Config) *Emitter {
	a := cfg.Fabric
	// Register files wider than the 16 registers the kind layout reserves
	// spill past resKinds; size the claims to cover them.
	kinds := max(resKinds, resRegW+a.NumRegs)
	return &Emitter{Cfg: cfg, owner: make([]int32, kinds*a.Rows*a.Cols*cfg.II)}
}

// BeginNet starts the emission of one net: the paths emitted until the
// next BeginNet form one routed tree, and only they are searched for the
// predecessors of a fanout path's first node.
func (e *Emitter) BeginNet() { e.pred = e.pred[:0] }

// predOf returns the node that fed key on the current net's tree; the
// latest record wins.
func (e *Emitter) predOf(key uint64) (mrrg.Node, bool) {
	for i := len(e.pred) - 1; i >= 0; i-- {
		if e.pred[i].key == key {
			return e.pred[i].node, true
		}
	}
	return mrrg.Node{}, false
}

// Claim-key resource kinds (packed with position and wrapped time).
const (
	resFU = iota
	resMRD
	resMWR
	resSrc0
	resSrc1
	resOut0                // +direction (up to arch.MaxDirs)
	resReg0  = resOut0 + 8 // +register index (up to 16)
	resRegW  = resReg0 + 16
	resKinds = resRegW + 16
)

func (e *Emitter) resKey(kind, r, c, t int) int {
	a := e.Cfg.Fabric
	return ((kind*a.Rows+r)*a.Cols+c)*e.Cfg.II + e.wrapT(t)
}

func (e *Emitter) claimRes(kind, r, c, t int, tag Tag) error {
	key := e.resKey(kind, r, c, t)
	if old := e.owner[key]; old != 0 && Tag(old-1) != tag {
		return fmt.Errorf("route: resource kind %d @(%d,%d)t%d claimed by %q and %q: %w",
			kind, r, c, e.wrapT(t), Tag(old-1), tag, diag.ErrReplicaConflict)
	}
	e.owner[key] = int32(tag) + 1
	return nil
}

// wrapT folds a real cycle into the configuration period, so replicas of
// a value at t and t+II correctly collide on the same physical slot.
func (e *Emitter) wrapT(t int) int { return ((t % e.Cfg.II) + e.Cfg.II) % e.Cfg.II }

func (e *Emitter) slot(n mrrg.Node) *arch.Instr { return e.Cfg.At(n.R, n.C, n.T) }

// PlaceOp stamps a compute operation on an FU slot.
func (e *Emitter) PlaceOp(n mrrg.Node, kind ir.OpKind, tag Tag) error {
	if n.Class != mrrg.ClassFU {
		return fmt.Errorf("route: PlaceOp on %v: %w", n, diag.ErrConfigInvalid)
	}
	if err := e.claimRes(resFU, n.R, n.C, n.T, tag); err != nil {
		return err
	}
	in := e.slot(n)
	in.Op = kind
	if in.Comment == "" {
		in.Comment = tag.String()
	}
	return nil
}

// PlaceLoad stamps a data-memory read on a memory port slot.
func (e *Emitter) PlaceLoad(n mrrg.Node, tag Tag, elem string) error {
	if n.Class != mrrg.ClassMemRead {
		return fmt.Errorf("route: PlaceLoad on %v: %w", n, diag.ErrConfigInvalid)
	}
	if err := e.claimRes(resMRD, n.R, n.C, n.T, tag); err != nil {
		return err
	}
	in := e.slot(n)
	in.MemRead = arch.MemOp{Active: true, Tag: elem}
	return nil
}

// operandFrom derives the crossbar source selector exposing the value
// carried at node cur, where prev is the node before cur on the path
// (needed for register reads) and consumer identifies the PE/cycle that
// consumes (to translate Out registers into input-latch directions).
func operandFrom(cur, prev mrrg.Node, atR, atC, atT int) (arch.Operand, error) {
	switch cur.Class {
	case mrrg.ClassFU:
		if cur.R != atR || cur.C != atC || cur.T != atT {
			return arch.Operand{}, fmt.Errorf("route: ALU tap across PEs (%v consumed at (%d,%d)t%d): %w", cur, atR, atC, atT, diag.ErrConfigInvalid)
		}
		return arch.FromALU(), nil
	case mrrg.ClassMemRead:
		if cur.R != atR || cur.C != atC || cur.T != atT {
			return arch.Operand{}, fmt.Errorf("route: mem tap across PEs (%v at (%d,%d)t%d): %w", cur, atR, atC, atT, diag.ErrConfigInvalid)
		}
		return arch.FromMem(), nil
	case mrrg.ClassRFRead:
		if prev.Class != mrrg.ClassReg {
			return arch.Operand{}, fmt.Errorf("route: RF read not preceded by register node (%v): %w", prev, diag.ErrConfigInvalid)
		}
		return arch.FromReg(int(prev.Idx)), nil
	case mrrg.ClassOut:
		d := arch.Dir(cur.Idx)
		if cur.R == atR && cur.C == atC {
			// Same PE, earlier cycle: output register holding (only valid
			// when driving the same output register).
			return arch.Hold(), nil
		}
		// The value sits in the neighbor's output register pointed at us;
		// it arrives on our input latch from the neighbor's direction.
		return arch.FromIn(d.Opposite()), nil
	}
	return arch.Operand{}, fmt.Errorf("route: no operand form for %v: %w", cur, diag.ErrConfigInvalid)
}

// EmitPath stamps all routing fields of one path of the current net (see
// BeginNet). tag identifies the carried value; storeElem is used when the
// path terminates at a memory write port.
func (e *Emitter) EmitPath(p Path, tag Tag, storeElem string) error {
	nodeAt := func(i int) mrrg.Node {
		if i >= 0 {
			return p[i]
		}
		// Before the path start: the net node that fed p[0] on an earlier
		// path of the same net.
		if pr, ok := e.predOf(mrrg.RealKey(p[0])); ok {
			return pr
		}
		return mrrg.Node{Class: mrrg.ClassFU, R: -1, C: -1}
	}
	prevOf := func(i int) mrrg.Node { return nodeAt(i - 1) }
	for i := 1; i < len(p); i++ {
		e.pred = append(e.pred, predEntry{mrrg.RealKey(p[i]), p[i-1]})
	}
	for i := 1; i < len(p); i++ {
		cur := p[i]
		prev := p[i-1]
		switch cur.Class {
		case mrrg.ClassOut:
			src, err := operandFrom(prev, prevOf(i-1), cur.R, cur.C, cur.T)
			if err != nil {
				return err
			}
			if src.Kind == arch.OpdHold && arch.Dir(cur.Idx) != arch.Dir(prev.Idx) {
				return fmt.Errorf("route: hold across output registers (%v <- %v): %w", cur, prev, diag.ErrConfigInvalid)
			}
			if err := e.claimRes(resOut0+int(cur.Idx), cur.R, cur.C, cur.T, tag); err != nil {
				return err
			}
			in := e.slot(cur)
			in.OutSel[cur.Idx] = src
		case mrrg.ClassReg:
			// Value occupancy of the register during cycle cur.T.
			if err := e.claimRes(resReg0+int(cur.Idx), cur.R, cur.C, cur.T, tag); err != nil {
				return err
			}
			if prev.Class == mrrg.ClassRFWrite {
				// A write at prev.T places the value; source is the node
				// before the write port.
				src, err := operandFrom(nodeAt(i-2), prevOf(i-2), prev.R, prev.C, prev.T)
				if err != nil {
					return err
				}
				if err := e.claimRes(resRegW+int(cur.Idx), prev.R, prev.C, prev.T, tag); err != nil {
					return err
				}
				in := e.slot(prev)
				dup := false
				for _, w := range in.RegWr {
					if w.Reg == int(cur.Idx) && w.Src == src {
						dup = true
					}
				}
				if !dup {
					in.RegWr = append(in.RegWr, arch.RegWrite{Reg: int(cur.Idx), Src: src})
				}
			}
		case mrrg.ClassRFWrite, mrrg.ClassRFRead:
			// Port passages; fields are emitted at the adjacent nodes.
		case mrrg.ClassMemWrite:
			src, err := operandFrom(prev, prevOf(i-1), cur.R, cur.C, cur.T)
			if err != nil {
				return err
			}
			if err := e.claimRes(resMWR, cur.R, cur.C, cur.T, tag); err != nil {
				return err
			}
			in := e.slot(cur)
			in.MemWrite = arch.MemOp{Active: true, Src: src, Tag: storeElem}
		default:
			return fmt.Errorf("route: unexpected path node %v: %w", cur, diag.ErrConfigInvalid)
		}
	}
	return nil
}

// SetOperand stamps a consumer's ALU source port with the value delivered
// by the final nodes of a path (last = p[len-1], the delivery node).
func (e *Emitter) SetOperand(fu mrrg.Node, port int, p Path, tag Tag) error {
	if fu.Class != mrrg.ClassFU {
		return fmt.Errorf("route: SetOperand on %v: %w", fu, diag.ErrConfigInvalid)
	}
	last := p[len(p)-1]
	var before mrrg.Node
	if len(p) >= 2 {
		before = p[len(p)-2]
	} else if pr, ok := e.predOf(mrrg.RealKey(last)); ok {
		before = pr
	}
	src, err := operandFrom(last, before, fu.R, fu.C, fu.T)
	if err != nil {
		return err
	}
	if src.Kind == arch.OpdHold {
		return fmt.Errorf("route: operand cannot be a hold (%v): %w", last, diag.ErrConfigInvalid)
	}
	kind := resSrc0
	if port == 1 {
		kind = resSrc1
	}
	if err := e.claimRes(kind, fu.R, fu.C, fu.T, tag); err != nil {
		return err
	}
	in := e.slot(fu)
	if port == 0 {
		in.SrcA = src
	} else {
		in.SrcB = src
	}
	return nil
}

// SetConstOperand stamps an immediate on a consumer's port 1.
func (e *Emitter) SetConstOperand(fu mrrg.Node, v int64, tag Tag) error {
	if err := e.claimRes(resSrc1, fu.R, fu.C, fu.T, tag); err != nil {
		return err
	}
	e.slot(fu).SrcB = arch.FromConst(v)
	return nil
}
