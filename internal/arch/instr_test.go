package arch

import (
	"errors"
	"math/rand"
	"testing"

	"himap/internal/diag"
	"himap/internal/ir"
)

// TestInstrValidateErrorText pins the sentinel and the exact message of
// each register-port failure. Two bad register reads must always report
// the lower index, whatever the operand order, so the text that reaches
// CompileError and wire error bodies is deterministic.
func TestInstrValidateErrorText(t *testing.T) {
	c := Default(2, 2) // 4 registers, 2 read / 2 write ports
	withOut := func(in Instr, d Dir, o Operand) Instr {
		in.OutSel[d] = o
		return in
	}
	cases := []struct {
		name string
		in   Instr
		want string
	}{
		{
			name: "out-of-range read",
			in:   Instr{Op: ir.OpAdd, SrcA: FromReg(9), SrcB: FromReg(7)},
			want: "arch: register read index 7 out of 4: " + diag.ErrConfigInvalid.Error(),
		},
		{
			name: "out-of-range read, negative",
			in:   withOut(Instr{Op: ir.OpAdd, SrcA: FromReg(5), SrcB: FromIn(North)}, South, FromReg(-3)),
			want: "arch: register read index -3 out of 4: " + diag.ErrConfigInvalid.Error(),
		},
		{
			name: "too many read ports",
			in:   withOut(Instr{Op: ir.OpAdd, SrcA: FromReg(0), SrcB: FromReg(1)}, East, FromReg(2)),
			want: "arch: instruction reads 3 registers, 2 read ports: " + diag.ErrConfigInvalid.Error(),
		},
		{
			name: "out-of-range write",
			in: Instr{Op: ir.OpAdd, SrcA: FromIn(North), SrcB: FromConst(1),
				RegWr: []RegWrite{{Reg: 1, Src: FromALU()}, {Reg: 4, Src: FromALU()}}},
			want: "arch: register write index 4 out of 4: " + diag.ErrConfigInvalid.Error(),
		},
		{
			name: "register written twice",
			in: Instr{Op: ir.OpAdd, SrcA: FromIn(North), SrcB: FromConst(1),
				RegWr: []RegWrite{{Reg: 1, Src: FromALU()}, {Reg: 1, Src: FromIn(West)}}},
			want: "arch: register 1 written twice in one cycle: " + diag.ErrConfigInvalid.Error(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Repeat: the historical map-ranging check reported a random
			// one of several bad reads.
			for i := 0; i < 20; i++ {
				err := tc.in.Validate(c)
				if !errors.Is(err, diag.ErrConfigInvalid) {
					t.Fatalf("err = %v, want ErrConfigInvalid", err)
				}
				if err.Error() != tc.want {
					t.Fatalf("err = %q, want %q", err, tc.want)
				}
			}
		})
	}
}

// oracleKey is the historical instruction-dedup key: the rendered
// instruction with the provenance comment and memory tags cleared.
func oracleKey(in Instr) string {
	in.Comment = ""
	in.MemRead.Tag = ""
	in.MemWrite.Tag = ""
	return in.String()
}

func randOperand(rng *rand.Rand) Operand {
	// Kinds past OpdHold are out of range; every field is drawn whatever
	// the kind, so payloads the kind does not select vary too.
	return Operand{
		Kind:  OperandKind(rng.Intn(int(OpdHold) + 3)),
		Dir:   Dir(rng.Intn(int(MaxDirs))),
		Reg:   rng.Intn(3),
		Const: int64(rng.Intn(2)),
	}
}

func randInstr(rng *rand.Rand) Instr {
	ops := []ir.OpKind{ir.OpNop, ir.OpAdd, ir.OpMul}
	tags := []string{"", "A@0", "B@1,2"}
	in := Instr{
		Op:       ops[rng.Intn(len(ops))],
		SrcA:     randOperand(rng),
		SrcB:     randOperand(rng),
		MemRead:  MemOp{Active: rng.Intn(2) == 0, Src: randOperand(rng), Tag: tags[rng.Intn(len(tags))]},
		MemWrite: MemOp{Active: rng.Intn(2) == 0, Src: randOperand(rng), Tag: tags[rng.Intn(len(tags))]},
		Comment:  tags[rng.Intn(len(tags))],
	}
	for d := range in.OutSel {
		if rng.Intn(3) == 0 {
			in.OutSel[d] = randOperand(rng)
		}
	}
	for i := rng.Intn(3); i > 0; i-- {
		in.RegWr = append(in.RegWr, RegWrite{Reg: rng.Intn(2), Src: randOperand(rng)})
	}
	return in
}

// variant perturbs an instruction in ways that may or may not change its
// configuration word: metadata only, a reordering of the register
// writes, or one redrawn field.
func variant(rng *rand.Rand, in Instr) Instr {
	out := in
	out.RegWr = append([]RegWrite(nil), in.RegWr...)
	switch rng.Intn(5) {
	case 0:
		out.Comment = "other"
		out.MemRead.Tag = "X@9"
		out.MemWrite.Tag = "Y@8"
	case 1:
		for i, j := 0, len(out.RegWr)-1; i < j; i, j = i+1, j-1 {
			out.RegWr[i], out.RegWr[j] = out.RegWr[j], out.RegWr[i]
		}
	case 2:
		out.SrcB = randOperand(rng)
	case 3:
		out.OutSel[rng.Intn(int(MaxDirs))] = randOperand(rng)
	case 4:
		out.MemWrite.Src = randOperand(rng)
	}
	return out
}

// TestInstrWordMatchesStringKey checks the packed-word dedup against the
// historical String-based key: on randomized instructions, two words
// compare equal exactly when the old keys did, and UniqueInstrs counts
// exactly the distinct old keys of a PE's stream.
func TestInstrWordMatchesStringKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	equal := 0
	for i := 0; i < 20000; i++ {
		a := randInstr(rng)
		b := variant(rng, a)
		if rng.Intn(4) == 0 {
			b = randInstr(rng)
		}
		want := oracleKey(a) == oracleKey(b)
		if got := sameWord(&a, &b); got != want {
			t.Fatalf("sameWord = %v, String keys equal = %v\na: %+v\nb: %+v", got, want, a, b)
		}
		if want {
			equal++
		}
	}
	if equal < 2000 {
		t.Fatalf("only %d equal pairs: the generator does not exercise dedup", equal)
	}

	f := DefaultFabric(1, 1)
	for i := 0; i < 500; i++ {
		cfg := NewConfig(f, 1+rng.Intn(8))
		seen := map[string]bool{}
		base := randInstr(rng)
		for t := 0; t < cfg.II; t++ {
			in := variant(rng, base)
			if rng.Intn(3) == 0 {
				in = randInstr(rng)
			}
			cfg.Slots[0][0][t] = in
			seen[oracleKey(in)] = true
		}
		if got := cfg.UniqueInstrs(0, 0); got != len(seen) {
			t.Fatalf("UniqueInstrs = %d, String-key oracle = %d", got, len(seen))
		}
	}
}
