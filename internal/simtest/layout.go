package simtest

import (
	"scalesim/internal/config"
	"scalesim/internal/systolic"
)

// NaturalTransforms returns the storage orders a layout-aware mapper picks
// for each operand of the GEMM under the dataflow, as maps from an
// operand-local row-major word address to its storage address. An operand
// the dataflow walks column-wise is stored transposed, so its per-cycle
// access groups are contiguous; a nil entry keeps row-major.
//
//	OS: the ifmap streams column by column (A[·, t]) → transposed; the
//	    filter streams row by row and the outputs drain row-major.
//	WS: every access group is already row-contiguous.
//	IS: the filter streams column by column (B[·, n]), the stationary
//	    ifmap fills column-wise and the outputs drain column by column.
func NaturalTransforms(df config.Dataflow, g systolic.Gemm) (ifmap, filter, ofmap func(int64) int64) {
	transpose := func(rows, cols int) func(int64) int64 {
		r, c := int64(rows), int64(cols)
		return func(local int64) int64 { return local%c*r + local/c }
	}
	switch df {
	case config.OutputStationary:
		ifmap = transpose(g.M, g.K)
	case config.InputStationary:
		ifmap, filter, ofmap = transpose(g.M, g.K), transpose(g.K, g.N), transpose(g.M, g.N)
	}
	return ifmap, filter, ofmap
}

// LayoutReplay is the per-cycle oracle of the layout stage's closed-form
// bank-conflict analysis. It streams the layer's demand cycle by cycle
// (Stream), rebases each operand's addresses to operand-local, maps them to
// storage order (NaturalTransforms when natural is set, row-major
// otherwise) and hands each cycle's ifmap reads, filter reads and ofmap
// writes to observe — in the layout tests, three Analyzers' Observe.
func LayoutReplay(df config.Dataflow, r, c int, g systolic.Gemm, natural bool,
	observe func(ifmap, filter, ofmap []int64)) error {
	var ti, tf, to func(int64) int64
	if natural {
		ti, tf, to = NaturalTransforms(df, g)
	}
	store := func(dst, addrs []int64, base int64, t func(int64) int64) []int64 {
		for _, a := range addrs {
			a -= base
			if t != nil {
				a = t(a)
			}
			dst = append(dst, a)
		}
		return dst
	}
	var ifBuf, flBuf, ofBuf []int64
	return Stream(df, r, c, g, func(d *systolic.Demand) bool {
		ifBuf = store(ifBuf[:0], d.IfmapReads, systolic.IfmapBase, ti)
		flBuf = store(flBuf[:0], d.FilterReads, systolic.FilterBase, tf)
		ofBuf = store(ofBuf[:0], d.OfmapWrites, systolic.OfmapBase, to)
		observe(ifBuf, flBuf, ofBuf)
		return true
	})
}
