// Package topology describes the workloads SCALE-Sim simulates: sequences of
// convolution and GEMM layers, parsed from SCALE-Sim topology CSV files or
// constructed programmatically from the built-in model zoo.
//
// SCALE-Sim lowers every layer to a GEMM before mapping it onto the systolic
// array; the lowering implemented here follows the SCALE-Sim v2 convention:
// a convolution with ifmap H×W×C, F filters of size Fh×Fw×C and stride S
// becomes a GEMM with M = H'·W' output pixels, K = Fh·Fw·C window elements
// and N = F filters.
package topology

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// LayerKind distinguishes convolution layers (described by ifmap/filter
// geometry) from raw GEMM layers (described directly by M, N, K).
type LayerKind int

const (
	// Conv is a 2-D convolution layer.
	Conv LayerKind = iota
	// GEMM is a plain matrix multiplication layer.
	GEMM
)

func (k LayerKind) String() string {
	switch k {
	case Conv:
		return "conv"
	case GEMM:
		return "gemm"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// Sparsity describes the N:M structured sparsity of a layer's filter
// operand: each group of M consecutive elements in a filter row holds at
// most N non-zero values. The zero value (0:0) means dense.
type Sparsity struct {
	N int
	M int
}

// Dense reports whether the layer carries no sparsity annotation.
func (s Sparsity) Dense() bool { return s.M == 0 || (s.N == s.M) }

// Ratio returns the fraction of kept (non-zero) elements, 1.0 for dense.
func (s Sparsity) Ratio() float64 {
	if s.M == 0 {
		return 1.0
	}
	return float64(s.N) / float64(s.M)
}

func (s Sparsity) String() string {
	if s.M == 0 {
		return "dense"
	}
	return fmt.Sprintf("%d:%d", s.N, s.M)
}

// ParseSparsity parses an "N:M" annotation such as "2:4". An empty string,
// "dense", "none" or "0" yields the dense zero value.
func ParseSparsity(s string) (Sparsity, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	switch s {
	case "", "dense", "none", "0", "-":
		return Sparsity{}, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return Sparsity{}, fmt.Errorf("topology: invalid sparsity %q (want N:M)", s)
	}
	n, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return Sparsity{}, fmt.Errorf("topology: invalid sparsity numerator %q: %v", parts[0], err)
	}
	m, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return Sparsity{}, fmt.Errorf("topology: invalid sparsity denominator %q: %v", parts[1], err)
	}
	if m <= 0 || n <= 0 || n > m {
		return Sparsity{}, fmt.Errorf("topology: invalid sparsity ratio %d:%d", n, m)
	}
	return Sparsity{N: n, M: m}, nil
}

// Layer is a single network layer. For Conv layers the geometry fields are
// authoritative and the GEMM dims are derived; for GEMM layers M, N, K are
// authoritative.
type Layer struct {
	Name string
	Kind LayerKind

	// Convolution geometry (Kind == Conv).
	IfmapH     int
	IfmapW     int
	FilterH    int
	FilterW    int
	Channels   int
	NumFilters int
	Stride     int

	// GEMM dimensions (Kind == GEMM). For Conv these are filled by GEMMDims.
	M int // rows of the output (number of ofmap pixels)
	N int // columns of the output (number of filters)
	K int // contraction dimension (conv window size)

	// Sparsity annotation for the filter operand (v3 SparsitySupport column).
	Sparsity Sparsity
}

// Validate reports a descriptive error when the layer is malformed.
func (l *Layer) Validate() error {
	switch l.Kind {
	case Conv:
		if l.IfmapH <= 0 || l.IfmapW <= 0 {
			return fmt.Errorf("topology: layer %q: non-positive ifmap %dx%d", l.Name, l.IfmapH, l.IfmapW)
		}
		if l.FilterH <= 0 || l.FilterW <= 0 {
			return fmt.Errorf("topology: layer %q: non-positive filter %dx%d", l.Name, l.FilterH, l.FilterW)
		}
		if l.FilterH > l.IfmapH || l.FilterW > l.IfmapW {
			return fmt.Errorf("topology: layer %q: filter %dx%d larger than ifmap %dx%d",
				l.Name, l.FilterH, l.FilterW, l.IfmapH, l.IfmapW)
		}
		if l.Channels <= 0 {
			return fmt.Errorf("topology: layer %q: non-positive channel count %d", l.Name, l.Channels)
		}
		if l.NumFilters <= 0 {
			return fmt.Errorf("topology: layer %q: non-positive filter count %d", l.Name, l.NumFilters)
		}
		if l.Stride <= 0 {
			return fmt.Errorf("topology: layer %q: non-positive stride %d", l.Name, l.Stride)
		}
	case GEMM:
		if l.M <= 0 || l.N <= 0 || l.K <= 0 {
			return fmt.Errorf("topology: layer %q: non-positive GEMM dims M=%d N=%d K=%d", l.Name, l.M, l.N, l.K)
		}
	default:
		return fmt.Errorf("topology: layer %q: unknown kind %v", l.Name, l.Kind)
	}
	if s := l.Sparsity; s.M != 0 && (s.N <= 0 || s.N > s.M) {
		return fmt.Errorf("topology: layer %q: invalid sparsity %v", l.Name, s)
	}
	return nil
}

// OfmapH returns the output feature-map height of a Conv layer.
func (l *Layer) OfmapH() int {
	if l.Kind != Conv {
		return 0
	}
	return (l.IfmapH-l.FilterH)/l.Stride + 1
}

// OfmapW returns the output feature-map width of a Conv layer.
func (l *Layer) OfmapW() int {
	if l.Kind != Conv {
		return 0
	}
	return (l.IfmapW-l.FilterW)/l.Stride + 1
}

// GEMMDims lowers the layer to GEMM dimensions (M, N, K):
// M output rows, N output columns and K contraction length.
func (l *Layer) GEMMDims() (m, n, k int) {
	if l.Kind == GEMM {
		return l.M, l.N, l.K
	}
	m = l.OfmapH() * l.OfmapW()
	n = l.NumFilters
	k = l.FilterH * l.FilterW * l.Channels
	return m, n, k
}

// MACs returns the number of multiply-accumulate operations in the dense
// layer: M·N·K.
func (l *Layer) MACs() int64 {
	m, n, k := l.GEMMDims()
	return int64(m) * int64(n) * int64(k)
}

// Topology is an ordered list of layers forming a workload.
type Topology struct {
	Name   string
	Layers []Layer
}

// Validate validates every layer.
func (t *Topology) Validate() error {
	if len(t.Layers) == 0 {
		return fmt.Errorf("topology: %q has no layers", t.Name)
	}
	for i := range t.Layers {
		if err := t.Layers[i].Validate(); err != nil {
			return fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return nil
}

// TotalMACs sums MACs across all layers.
func (t *Topology) TotalMACs() int64 {
	var total int64
	for i := range t.Layers {
		total += t.Layers[i].MACs()
	}
	return total
}

// Sub returns a topology containing layers [lo, hi) of t, sharing storage.
func (t *Topology) Sub(lo, hi int) *Topology {
	if lo < 0 {
		lo = 0
	}
	if hi > len(t.Layers) {
		hi = len(t.Layers)
	}
	if lo > hi {
		lo = hi
	}
	return &Topology{Name: fmt.Sprintf("%s[%d:%d]", t.Name, lo, hi), Layers: t.Layers[lo:hi]}
}

// WithSparsity returns a deep copy of t in which every layer carries the
// given sparsity annotation.
func (t *Topology) WithSparsity(s Sparsity) *Topology {
	out := &Topology{Name: fmt.Sprintf("%s_%s", t.Name, s), Layers: make([]Layer, len(t.Layers))}
	copy(out.Layers, t.Layers)
	for i := range out.Layers {
		out.Layers[i].Sparsity = s
	}
	return out
}

// ParseCSV reads a SCALE-Sim topology CSV. The classic format is
//
//	Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width,
//	Channels, Num Filter, Strides,
//
// with an optional trailing v3 SparsitySupport column holding N:M ratios.
// GEMM layers may be given in the alternative format
//
//	Layer name, M, N, K,
//
// when the file's header starts with "Layer" and contains an "M" column.
func ParseCSV(r io.Reader) (*Topology, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("topology: reading csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("topology: empty csv")
	}

	header := records[0]
	isGEMM := false
	for _, h := range header {
		if strings.EqualFold(strings.TrimSpace(h), "m") {
			isGEMM = true
		}
	}
	topo := &Topology{Name: "csv"}
	for lineNo, rec := range records[1:] {
		rec = trimRecord(rec)
		if len(rec) == 0 {
			continue
		}
		var layer Layer
		if isGEMM {
			layer, err = parseGEMMRecord(rec)
		} else {
			layer, err = parseConvRecord(rec)
		}
		if err != nil {
			return nil, fmt.Errorf("topology: line %d: %w", lineNo+2, err)
		}
		if err := layer.Validate(); err != nil {
			return nil, fmt.Errorf("topology: line %d: %w", lineNo+2, err)
		}
		topo.Layers = append(topo.Layers, layer)
	}
	if len(topo.Layers) == 0 {
		return nil, fmt.Errorf("topology: csv has a header but no layer rows")
	}
	return topo, nil
}

// LoadCSV parses the topology file at path.
func LoadCSV(path string) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := ParseCSV(f)
	if err != nil {
		return nil, err
	}
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	t.Name = strings.TrimSuffix(base, ".csv")
	return t, nil
}

func trimRecord(rec []string) []string {
	for len(rec) > 0 && strings.TrimSpace(rec[len(rec)-1]) == "" {
		rec = rec[:len(rec)-1]
	}
	if len(rec) == 1 && strings.TrimSpace(rec[0]) == "" {
		return nil
	}
	return rec
}

func parseConvRecord(rec []string) (Layer, error) {
	if len(rec) < 8 {
		return Layer{}, fmt.Errorf("conv row needs >= 8 fields, got %d", len(rec))
	}
	vals := make([]int, 7)
	for i := 0; i < 7; i++ {
		v, err := strconv.Atoi(strings.TrimSpace(rec[i+1]))
		if err != nil {
			return Layer{}, fmt.Errorf("field %d (%q): %v", i+1, rec[i+1], err)
		}
		vals[i] = v
	}
	layer := Layer{
		Name: strings.TrimSpace(rec[0]), Kind: Conv,
		IfmapH: vals[0], IfmapW: vals[1],
		FilterH: vals[2], FilterW: vals[3],
		Channels: vals[4], NumFilters: vals[5], Stride: vals[6],
	}
	if len(rec) >= 9 {
		sp, err := ParseSparsity(rec[8])
		if err != nil {
			return Layer{}, err
		}
		layer.Sparsity = sp
	}
	return layer, nil
}

func parseGEMMRecord(rec []string) (Layer, error) {
	if len(rec) < 4 {
		return Layer{}, fmt.Errorf("gemm row needs >= 4 fields, got %d", len(rec))
	}
	vals := make([]int, 3)
	for i := 0; i < 3; i++ {
		v, err := strconv.Atoi(strings.TrimSpace(rec[i+1]))
		if err != nil {
			return Layer{}, fmt.Errorf("field %d (%q): %v", i+1, rec[i+1], err)
		}
		vals[i] = v
	}
	layer := Layer{
		Name: strings.TrimSpace(rec[0]), Kind: GEMM,
		M: vals[0], N: vals[1], K: vals[2],
	}
	if len(rec) >= 5 {
		sp, err := ParseSparsity(rec[4])
		if err != nil {
			return Layer{}, err
		}
		layer.Sparsity = sp
	}
	return layer, nil
}

// WriteCSV emits the topology in SCALE-Sim CSV format (conv format when all
// layers are convolutions, GEMM format otherwise).
func (t *Topology) WriteCSV(w io.Writer) error {
	allConv := true
	for i := range t.Layers {
		if t.Layers[i].Kind != Conv {
			allConv = false
			break
		}
	}
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if allConv {
		if err := cw.Write([]string{"Layer name", "IFMAP Height", "IFMAP Width", "Filter Height",
			"Filter Width", "Channels", "Num Filter", "Strides", "SparsitySupport"}); err != nil {
			return err
		}
		for i := range t.Layers {
			l := &t.Layers[i]
			if err := cw.Write([]string{l.Name,
				strconv.Itoa(l.IfmapH), strconv.Itoa(l.IfmapW),
				strconv.Itoa(l.FilterH), strconv.Itoa(l.FilterW),
				strconv.Itoa(l.Channels), strconv.Itoa(l.NumFilters),
				strconv.Itoa(l.Stride), l.Sparsity.String()}); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	}
	if err := cw.Write([]string{"Layer name", "M", "N", "K", "SparsitySupport"}); err != nil {
		return err
	}
	for i := range t.Layers {
		l := &t.Layers[i]
		m, n, k := l.GEMMDims()
		if err := cw.Write([]string{l.Name,
			strconv.Itoa(m), strconv.Itoa(n), strconv.Itoa(k), l.Sparsity.String()}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
