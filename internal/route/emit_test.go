package route

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"himap/internal/arch"
	"himap/internal/diag"
	"himap/internal/ir"
	"himap/internal/mrrg"
)

func TestTagNames(t *testing.T) {
	for _, tc := range []struct {
		tag  Tag
		want string
	}{
		{ValueTag(0), "n0"},
		{ValueTag(17), "n17"},
		{OperandTag(0), "n0:const"},
		{OperandTag(41), "n41:const"},
	} {
		if got := tc.tag.String(); got != tc.want {
			t.Errorf("%d.String() = %q, want %q", tc.tag, got, tc.want)
		}
	}
	if ValueTag(5) == OperandTag(5) {
		t.Error("a node's value and its operand must carry distinct tags")
	}
}

// wantConflict checks that err is a replica conflict naming both tags.
func wantConflict(t *testing.T, err error, names ...string) {
	t.Helper()
	if !errors.Is(err, diag.ErrReplicaConflict) {
		t.Fatalf("err = %v, want a conflict wrapping ErrReplicaConflict", err)
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), `"`+n+`"`) {
			t.Errorf("conflict %q does not name %q", err, n)
		}
	}
}

// routedToPort1 routes FU (0,0)t0 to the consumer FU (0,1)t1 of a 1x2
// fabric and returns the emitter with the producer placed and the path
// emitted as node 1's value.
func routedToPort1(t *testing.T) (*Emitter, mrrg.Node, Path) {
	t.Helper()
	f := arch.DefaultFabric(1, 2)
	g := mrrg.New(f, 2)
	s := NewSession(g)
	src := fu(0, 0, 0)
	s.Reserve(src)
	path, _, err := s.RouteSink(s.NewNet(src), g.OperandTargets(1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEmitter(arch.NewConfig(f, 2))
	if err := e.PlaceOp(src, ir.OpMul, ValueTag(1)); err != nil {
		t.Fatal(err)
	}
	e.BeginNet()
	if err := e.EmitPath(path, ValueTag(1), ""); err != nil {
		t.Fatal(err)
	}
	return e, fu(1, 0, 1), path
}

// TestEmitterConstConflictsWithRoutedValue: an immediate and a routed
// value cannot share a consumer's src1 port, in either stamping order.
func TestEmitterConstConflictsWithRoutedValue(t *testing.T) {
	e, cons, path := routedToPort1(t)
	if err := e.SetOperand(cons, 1, path, ValueTag(1)); err != nil {
		t.Fatal(err)
	}
	wantConflict(t, e.SetConstOperand(cons, 7, OperandTag(2)), "n1", "n2:const")

	e, cons, path = routedToPort1(t)
	if err := e.SetConstOperand(cons, 7, OperandTag(2)); err != nil {
		t.Fatal(err)
	}
	wantConflict(t, e.SetOperand(cons, 1, path, ValueTag(1)), "n2:const", "n1")

	// Port 0 is a different field: no conflict with the immediate.
	if err := e.SetOperand(cons, 0, path, ValueTag(1)); err != nil {
		t.Errorf("routed value on src0 beside an immediate on src1: %v", err)
	}
}

// TestEmitterRestampIdempotent: stamping the same fields again with the
// same tags — what replication does for values shared between members —
// succeeds and leaves the configuration unchanged.
func TestEmitterRestampIdempotent(t *testing.T) {
	e, cons, path := routedToPort1(t)
	if err := e.PlaceOp(cons, ir.OpAdd, ValueTag(2)); err != nil {
		t.Fatal(err)
	}
	if err := e.SetOperand(cons, 0, path, ValueTag(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.SetConstOperand(cons, 7, OperandTag(2)); err != nil {
		t.Fatal(err)
	}
	before := snapshot(e.Cfg)
	for i := 0; i < 2; i++ {
		e.BeginNet()
		if err := e.EmitPath(path, ValueTag(1), ""); err != nil {
			t.Fatalf("re-emitting the path: %v", err)
		}
		if err := e.PlaceOp(path[0], ir.OpMul, ValueTag(1)); err != nil {
			t.Fatalf("re-placing the producer: %v", err)
		}
		if err := e.PlaceOp(cons, ir.OpAdd, ValueTag(2)); err != nil {
			t.Fatalf("re-placing the consumer: %v", err)
		}
		if err := e.SetOperand(cons, 0, path, ValueTag(1)); err != nil {
			t.Fatalf("re-stamping src0: %v", err)
		}
		if err := e.SetConstOperand(cons, 7, OperandTag(2)); err != nil {
			t.Fatalf("re-stamping the immediate: %v", err)
		}
	}
	if after := snapshot(e.Cfg); !reflect.DeepEqual(before, after) {
		t.Errorf("idempotent re-stamp changed the configuration\nbefore %v\nafter  %v", before, after)
	}
	if got := e.Cfg.At(0, 0, 0).Comment; got != "n1" {
		t.Errorf("producer comment %q, want %q", got, "n1")
	}
}

// TestEmitterConflictNamesTags: a conflicting stamp names both values by
// their DFG node and wraps ErrReplicaConflict.
func TestEmitterConflictNamesTags(t *testing.T) {
	e := NewEmitter(arch.NewConfig(arch.DefaultFabric(1, 2), 2))
	n := fu(0, 0, 1)
	if err := e.PlaceOp(n, ir.OpMul, ValueTag(3)); err != nil {
		t.Fatal(err)
	}
	wantConflict(t, e.PlaceOp(n, ir.OpAdd, ValueTag(12)), "n3", "n12")
	// A wrapped replica of the slot one period later is the same field.
	wantConflict(t, e.PlaceOp(fu(2, 0, 1), ir.OpAdd, ValueTag(12)), "n3", "n12")
}

func snapshot(cfg *arch.Config) []string {
	var out []string
	for r := range cfg.Slots {
		for c := range cfg.Slots[r] {
			for t := range cfg.Slots[r][c] {
				in := cfg.Slots[r][c][t]
				out = append(out, in.String()+" ; "+in.Comment)
			}
		}
	}
	return out
}
