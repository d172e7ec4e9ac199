package arch

import (
	"fmt"
	"himap/internal/diag"
	"slices"
	"strings"

	"himap/internal/ir"
)

// OperandKind identifies where a crossbar/ALU input value comes from
// within a cycle.
type OperandKind uint8

const (
	// OpdNone selects nothing (port unused).
	OpdNone OperandKind = iota
	// OpdIn selects the input latch from neighbor direction Dir (the value
	// the neighbor's output register held last cycle).
	OpdIn
	// OpdALU selects this cycle's ALU result (same-cycle crossbar tap).
	OpdALU
	// OpdReg selects register Reg through an RF read port.
	OpdReg
	// OpdConst selects the immediate Const.
	OpdConst
	// OpdMem selects the value produced by this cycle's data-memory read.
	OpdMem
	// OpdHold keeps an output register's previous value (valid in OutSel
	// only).
	OpdHold
)

// Operand is a configured input selection.
type Operand struct {
	Kind  OperandKind
	Dir   Dir
	Reg   int
	Const int64
}

// Operand constructors.
func FromIn(d Dir) Operand      { return Operand{Kind: OpdIn, Dir: d} }
func FromALU() Operand          { return Operand{Kind: OpdALU} }
func FromReg(r int) Operand     { return Operand{Kind: OpdReg, Reg: r} }
func FromConst(v int64) Operand { return Operand{Kind: OpdConst, Const: v} }
func FromMem() Operand          { return Operand{Kind: OpdMem} }
func Hold() Operand             { return Operand{Kind: OpdHold} }

// String renders the operand compactly.
func (o Operand) String() string {
	switch o.Kind {
	case OpdNone:
		return "-"
	case OpdIn:
		return "in" + o.Dir.String()
	case OpdALU:
		return "alu"
	case OpdReg:
		return fmt.Sprintf("r%d", o.Reg)
	case OpdConst:
		return fmt.Sprintf("#%d", o.Const)
	case OpdMem:
		return "mem"
	case OpdHold:
		return "hold"
	}
	return "?"
}

// RegWrite configures one RF write port for the cycle.
type RegWrite struct {
	Reg int
	Src Operand
}

// MemOp configures the PE data-memory port for the cycle. At most one
// read and one write per cycle. Tag correlates the access with a logical
// tensor element for the simulator's stream feeds (it plays the role of
// the address-generation the paper's PEs perform while iterating blocks).
type MemOp struct {
	Active bool
	Src    Operand // writes: value source; reads: unused
	Tag    string  // "tensor@i,j" element correlation tag
}

// Instr is one configuration-memory word: the PE's behaviour for one
// cycle of the II-cycle repeating schedule.
type Instr struct {
	Op       ir.OpKind // OpNop or a compute kind
	SrcA     Operand
	SrcB     Operand
	OutSel   [MaxDirs]Operand // crossbar drive of the directional output registers
	RegWr    []RegWrite
	MemRead  MemOp
	MemWrite MemOp
	Comment  string // mapping provenance (node names), for rendering
}

// IsNop reports whether the instruction does nothing at all.
func (in *Instr) IsNop() bool {
	if in.Op != ir.OpNop || len(in.RegWr) != 0 || in.MemRead.Active || in.MemWrite.Active {
		return false
	}
	for _, o := range in.OutSel {
		if o.Kind != OpdNone {
			return false
		}
	}
	return true
}

// regSet is an allocation-free set of register indices: a bitmask for
// indices 0..63 plus a spill list for indices beyond it, which only an
// exotic register file or a malformed instruction produces.
type regSet struct {
	bits uint64
	wide []int
}

// add inserts r and reports whether it was absent.
func (s *regSet) add(r int) bool {
	if r >= 0 && r < 64 {
		if s.bits&(1<<uint(r)) != 0 {
			return false
		}
		s.bits |= 1 << uint(r)
		return true
	}
	if slices.Contains(s.wide, r) {
		return false
	}
	s.wide = append(s.wide, r)
	return true
}

// regReads returns how many distinct RF registers the instruction reads
// and the lowest read index outside [0, numRegs) (hasBad false when every
// read is in range).
func (in *Instr) regReads(numRegs int) (n, bad int, hasBad bool) {
	var seen regSet
	note := func(o Operand) {
		if o.Kind != OpdReg {
			return
		}
		if (o.Reg < 0 || o.Reg >= numRegs) && (!hasBad || o.Reg < bad) {
			bad, hasBad = o.Reg, true
		}
		if seen.add(o.Reg) {
			n++
		}
	}
	note(in.SrcA)
	note(in.SrcB)
	for _, o := range in.OutSel {
		note(o)
	}
	for _, w := range in.RegWr {
		note(w.Src)
	}
	if in.MemWrite.Active {
		note(in.MemWrite.Src)
	}
	return n, bad, hasBad
}

// Validate checks the instruction against the architecture's port limits:
// RF read/write ports, register indices, and single mem read/write. The
// checks run in a fixed order and report the lowest offending register
// index, so the error text is a pure function of the instruction.
func (in *Instr) Validate(c CGRA) error {
	reads, bad, hasBad := in.regReads(c.NumRegs)
	if reads > c.RFReadPorts {
		return fmt.Errorf("arch: instruction reads %d registers, %d read ports: %w", reads, c.RFReadPorts, diag.ErrConfigInvalid)
	}
	if hasBad {
		return fmt.Errorf("arch: register read index %d out of %d: %w", bad, c.NumRegs, diag.ErrConfigInvalid)
	}
	if len(in.RegWr) > c.RFWritePorts {
		return fmt.Errorf("arch: instruction writes %d registers, %d write ports: %w", len(in.RegWr), c.RFWritePorts, diag.ErrConfigInvalid)
	}
	var written regSet
	for _, w := range in.RegWr {
		if w.Reg < 0 || w.Reg >= c.NumRegs {
			return fmt.Errorf("arch: register write index %d out of %d: %w", w.Reg, c.NumRegs, diag.ErrConfigInvalid)
		}
		if !written.add(w.Reg) {
			return fmt.Errorf("arch: register %d written twice in one cycle: %w", w.Reg, diag.ErrConfigInvalid)
		}
		if w.Src.Kind == OpdNone || w.Src.Kind == OpdHold {
			return fmt.Errorf("arch: register write from %v: %w", w.Src, diag.ErrConfigInvalid)
		}
	}
	if in.Op.IsCompute() {
		if in.SrcA.Kind == OpdNone || in.SrcA.Kind == OpdHold {
			return fmt.Errorf("arch: compute %v with source A %v: %w", in.Op, in.SrcA, diag.ErrConfigInvalid)
		}
		if in.Op.Arity() > 1 && (in.SrcB.Kind == OpdNone || in.SrcB.Kind == OpdHold) {
			return fmt.Errorf("arch: compute %v with source B %v: %w", in.Op, in.SrcB, diag.ErrConfigInvalid)
		}
	}
	usesALU := func(o Operand) bool { return o.Kind == OpdALU }
	if !in.Op.IsCompute() {
		if usesALU(in.SrcA) || usesALU(in.SrcB) {
			return fmt.Errorf("arch: non-compute instruction with ALU source operand: %w", diag.ErrConfigInvalid)
		}
		for _, o := range in.OutSel {
			if usesALU(o) {
				return fmt.Errorf("arch: OutSel taps ALU but no compute op this cycle: %w", diag.ErrConfigInvalid)
			}
		}
		for _, w := range in.RegWr {
			if usesALU(w.Src) {
				return fmt.Errorf("arch: RegWr taps ALU but no compute op this cycle: %w", diag.ErrConfigInvalid)
			}
		}
		if in.MemWrite.Active && usesALU(in.MemWrite.Src) {
			return fmt.Errorf("arch: MemWrite taps ALU but no compute op this cycle: %w", diag.ErrConfigInvalid)
		}
	}
	usesMem := func(o Operand) bool { return o.Kind == OpdMem }
	memUsed := usesMem(in.SrcA) || usesMem(in.SrcB)
	for _, o := range in.OutSel {
		memUsed = memUsed || usesMem(o)
	}
	for _, w := range in.RegWr {
		memUsed = memUsed || usesMem(w.Src)
	}
	if in.MemWrite.Active && usesMem(in.MemWrite.Src) {
		memUsed = true
	}
	if memUsed && !in.MemRead.Active {
		return fmt.Errorf("arch: mem operand used but no memory read configured: %w", diag.ErrConfigInvalid)
	}
	return nil
}

// word is the comparable configuration content of an instruction apart
// from its register writes: what String renders, minus the provenance
// comment and the memory correlation tags. Operand payloads the rendering
// ignores (fields of other operand kinds, the sources of a nop, the
// source of an inactive store) are zeroed so they cannot split words.
type word struct {
	op                ir.OpKind
	srcA, srcB        Operand
	out               [MaxDirs]Operand
	memRead, memWrite bool
	memSrc            Operand
}

// opdUnknown is the canonical form of every out-of-range operand kind
// (String renders them all as "?").
const opdUnknown OperandKind = 255

// canon keeps only the operand fields its kind selects.
func (o Operand) canon() Operand {
	switch o.Kind {
	case OpdNone, OpdALU, OpdMem, OpdHold:
		return Operand{Kind: o.Kind}
	case OpdIn:
		return Operand{Kind: OpdIn, Dir: o.Dir}
	case OpdReg:
		return Operand{Kind: OpdReg, Reg: o.Reg}
	case OpdConst:
		return Operand{Kind: OpdConst, Const: o.Const}
	}
	return Operand{Kind: opdUnknown}
}

func (in *Instr) word() word {
	w := word{op: in.Op, memRead: in.MemRead.Active, memWrite: in.MemWrite.Active}
	if in.Op != ir.OpNop {
		w.srcA, w.srcB = in.SrcA.canon(), in.SrcB.canon()
	}
	for d, o := range in.OutSel {
		w.out[d] = o.canon()
	}
	if in.MemWrite.Active {
		w.memSrc = in.MemWrite.Src.canon()
	}
	return w
}

// sameWord reports whether two instructions occupy the same
// configuration-memory word: equal packed words and the same register
// writes in the same order.
func sameWord(a, b *Instr) bool {
	if len(a.RegWr) != len(b.RegWr) || a.word() != b.word() {
		return false
	}
	for i, w := range a.RegWr {
		if w.Reg != b.RegWr[i].Reg || w.Src.canon() != b.RegWr[i].Src.canon() {
			return false
		}
	}
	return true
}

// String renders the instruction on one line.
func (in *Instr) String() string {
	var b strings.Builder
	if in.Op != ir.OpNop {
		fmt.Fprintf(&b, "%s %s,%s", in.Op, in.SrcA, in.SrcB)
	} else {
		b.WriteString("nop")
	}
	for d := Dir(0); d < MaxDirs; d++ {
		if in.OutSel[d].Kind != OpdNone {
			fmt.Fprintf(&b, " out%s=%s", d, in.OutSel[d])
		}
	}
	for _, w := range in.RegWr {
		fmt.Fprintf(&b, " r%d=%s", w.Reg, w.Src)
	}
	if in.MemRead.Active {
		fmt.Fprintf(&b, " ld[%s]", in.MemRead.Tag)
	}
	if in.MemWrite.Active {
		fmt.Fprintf(&b, " st[%s]=%s", in.MemWrite.Tag, in.MemWrite.Src)
	}
	return b.String()
}
