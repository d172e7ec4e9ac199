// Package ir defines the graph intermediate representations used by the
// HiMap mapping flow: the Data-Flow Graph (DFG) of a fully unrolled loop
// block, the Iteration Space Dependency Graph (ISDG) obtained by clustering
// the DFG by iteration, and the Intra-iteration Data-Flow Graph (IDFG) that
// captures a single iteration together with its input/output interface.
//
// The definitions follow §IV of the HiMap paper (DATE 2021).
package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// IterVec is an iteration vector: one coordinate per loop level of the
// tiled kernel, ordered outermost first. It is also used for dependence
// distance vectors and tensor element indices.
type IterVec []int

// Clone returns a fresh copy of v.
func (v IterVec) Clone() IterVec {
	w := make(IterVec, len(v))
	copy(w, v)
	return w
}

// Add returns v + d, element-wise. The vectors must have equal length.
func (v IterVec) Add(d IterVec) IterVec {
	if len(v) != len(d) {
		panic(fmt.Sprintf("ir: IterVec.Add length mismatch %d vs %d", len(v), len(d)))
	}
	w := make(IterVec, len(v))
	for i := range v {
		w[i] = v[i] + d[i]
	}
	return w
}

// Sub returns v - d, element-wise. The vectors must have equal length.
func (v IterVec) Sub(d IterVec) IterVec {
	if len(v) != len(d) {
		panic(fmt.Sprintf("ir: IterVec.Sub length mismatch %d vs %d", len(v), len(d)))
	}
	w := make(IterVec, len(v))
	for i := range v {
		w[i] = v[i] - d[i]
	}
	return w
}

// Neg returns -v.
func (v IterVec) Neg() IterVec {
	w := make(IterVec, len(v))
	for i := range v {
		w[i] = -v[i]
	}
	return w
}

// Dot returns the inner product of v and d.
func (v IterVec) Dot(d IterVec) int {
	if len(v) != len(d) {
		panic(fmt.Sprintf("ir: IterVec.Dot length mismatch %d vs %d", len(v), len(d)))
	}
	s := 0
	for i := range v {
		s += v[i] * d[i]
	}
	return s
}

// Equal reports whether v and d have identical length and elements.
func (v IterVec) Equal(d IterVec) bool {
	if len(v) != len(d) {
		return false
	}
	for i := range v {
		if v[i] != d[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every element of v is zero.
func (v IterVec) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// LexNonNegative reports whether v is lexicographically non-negative,
// i.e. zero or with a positive leading non-zero element. Dependence
// distance vectors of a valid loop nest are lexicographically positive.
func (v IterVec) LexNonNegative() bool {
	for _, x := range v {
		if x > 0 {
			return true
		}
		if x < 0 {
			return false
		}
	}
	return true
}

// LexLess reports whether v precedes d in lexicographic order.
func (v IterVec) LexLess(d IterVec) bool {
	n := len(v)
	if len(d) < n {
		n = len(d)
	}
	for i := 0; i < n; i++ {
		if v[i] != d[i] {
			return v[i] < d[i]
		}
	}
	return len(v) < len(d)
}

// InBox reports whether 0 <= v[i] < box[i] for every coordinate.
func (v IterVec) InBox(box []int) bool {
	if len(v) != len(box) {
		return false
	}
	for i := range v {
		if v[i] < 0 || v[i] >= box[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string usable as a map key.
func (v IterVec) Key() string {
	var b strings.Builder
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// ElemTag renders the memory correlation tag of one tensor element,
// "tensor@i0,i1,...", with a single allocation.
func ElemTag(tensor string, index IterVec) string {
	var buf [64]byte
	b := append(buf[:0], tensor...)
	b = append(b, '@')
	for i, x := range index {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return string(b)
}

// String renders v as "(i0,i1,...)".
func (v IterVec) String() string { return "(" + v.Key() + ")" }

// ManhattanNorm returns the L1 norm of v.
func (v IterVec) ManhattanNorm() int {
	s := 0
	for _, x := range v {
		if x < 0 {
			s -= x
		} else {
			s += x
		}
	}
	return s
}

// BoxSize returns the product of the box extents, i.e. the number of
// iteration points in the block.
func BoxSize(box []int) int {
	n := 1
	for _, b := range box {
		n *= b
	}
	return n
}

// ForEachPoint invokes fn for every point of the box in lexicographic
// order (outermost dimension slowest). The IterVec passed to fn is reused
// between calls; clone it if it must be retained.
func ForEachPoint(box []int, fn func(IterVec)) {
	if len(box) == 0 {
		return
	}
	v := make(IterVec, len(box))
	for {
		fn(v)
		d := len(box) - 1
		for d >= 0 {
			v[d]++
			if v[d] < box[d] {
				break
			}
			v[d] = 0
			d--
		}
		if d < 0 {
			return
		}
	}
}

// PointIndex returns the lexicographic rank of v inside the box.
func PointIndex(v IterVec, box []int) int {
	idx := 0
	for i := range box {
		idx = idx*box[i] + v[i]
	}
	return idx
}
