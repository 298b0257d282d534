package sparse

import (
	"fmt"

	"scalesim/internal/config"
)

// Storage reports the footprint of one filter operand in a given
// representation, in bits (exact) and words (rounded up).
type Storage struct {
	Format config.SparseFormat
	// ValueBits holds the non-zero payload.
	ValueBits int64
	// MetadataBits holds indices/pointers.
	MetadataBits int64
}

// TotalBits is payload + metadata.
func (s Storage) TotalBits() int64 { return s.ValueBits + s.MetadataBits }

// TotalWords rounds the footprint up to wordBits-sized words.
func (s Storage) TotalWords(wordBits int) int64 {
	if wordBits <= 0 {
		wordBits = 32
	}
	return (s.TotalBits() + int64(wordBits) - 1) / int64(wordBits)
}

// DenseBits returns the dense footprint of the K×Filters operand.
func DenseBits(p *Pattern, wordBits int) int64 {
	return int64(p.K) * int64(p.Filters) * int64(wordBits)
}

// Footprint computes the storage of pattern p in the requested format.
// wordBits is the element width (16 for the paper's quantized runs,
// 32 default).
func Footprint(p *Pattern, format config.SparseFormat, wordBits int) (Storage, error) {
	if wordBits <= 0 {
		wordBits = 32
	}
	nnz := p.TotalNNZ()
	st := Storage{Format: format, ValueBits: nnz * int64(wordBits)}
	switch format {
	case config.BlockedELLPACK:
		// Per non-zero: log2(blockSize) bits locating it in its block.
		st.MetadataBits = nnz * int64(MetadataBitsPerElement(p.BlockSize))
	case config.CSR:
		// Rows are filters: row pointer per filter (+1), a column index
		// per non-zero addressing [0, K).
		idxBits := int64(bitsFor(p.K))
		ptrBits := int64(bitsFor(int(nnz) + 1))
		st.MetadataBits = nnz*idxBits + int64(p.Filters+1)*ptrBits
	case config.CSC:
		// Columns are the K positions: pointer per column, a row index
		// per non-zero addressing [0, Filters).
		idxBits := int64(bitsFor(p.Filters))
		ptrBits := int64(bitsFor(int(nnz) + 1))
		st.MetadataBits = nnz*idxBits + int64(p.K+1)*ptrBits
	default:
		return Storage{}, fmt.Errorf("sparse: unknown format %v", format)
	}
	return st, nil
}

// Report is the SPARSE_REPORT row for one layer, less the layer's name.
type Report struct {
	Format config.SparseFormat
	Ratio  string // the layer's N:M annotation
	// Word counts at the configured element width.
	OriginalFilterWords   int64
	CompressedFilterWords int64 // values + metadata
	MetadataWords         int64
	CompressionRatio      float64 // original / compressed
}

// NewReport builds the report row for a pattern.
func NewReport(ratio string, p *Pattern, format config.SparseFormat, wordBits int) (Report, error) {
	if wordBits <= 0 {
		wordBits = 32
	}
	st, err := Footprint(p, format, wordBits)
	if err != nil {
		return Report{}, err
	}
	orig := DenseBits(p, wordBits) / int64(wordBits)
	comp := st.TotalWords(wordBits)
	r := Report{
		Format:                format,
		Ratio:                 ratio,
		OriginalFilterWords:   orig,
		CompressedFilterWords: comp,
		MetadataWords:         (st.MetadataBits + int64(wordBits) - 1) / int64(wordBits),
	}
	if comp > 0 {
		r.CompressionRatio = float64(orig) / float64(comp)
	}
	return r, nil
}

// bitsFor returns the bits needed to index n distinct values (min 1).
func bitsFor(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}
