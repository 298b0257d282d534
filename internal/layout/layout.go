// Package layout models data organization inside a multi-bank on-chip
// memory and the bank-conflict slowdown it induces, following the paper's
// formulation. The memory is a 2-D array whose rows ("lines") aggregate the
// same-indexed row of every bank, and the latency of a parallel access
// group is
//
//	slowdown = max over banks ⌈lines touched in bank / ports per bank⌉
//
// compared against the pure-bandwidth baseline ⌈elements / total bandwidth⌉
// used by SCALE-Sim v2.
//
// An Analyzer accumulates both costs over the access groups of a fold
// schedule, in closed form (AnalyzeSchedule, ObserveRun) or one group at a
// time (Observe). Each operand is stored row-major, or in the natural order
// a layout-aware mapper picks per dataflow (NaturalTransposed), which
// stores column-walked operands transposed.
package layout
