package objgraph

import (
	"strconv"
	"unsafe"

	"failatomic/internal/typeplan"
)

// Interned edge labels. Capture used to build "arg1"/"[3]" strings on
// every root and element node; the common low indices are precomputed
// once and shared.

const nInternedLabels = 128

var (
	internedIndexLabels [nInternedLabels]string // "[0]", "[1]", ...
	internedArgLabels   [nInternedLabels]string // "recv", "arg1", ...
	internedIndexHashes [nInternedLabels]uint64
	internedArgHashes   [nInternedLabels]uint64
)

func init() {
	internedArgLabels[0] = "recv"
	for i := range internedIndexLabels {
		internedIndexLabels[i] = "[" + strconv.Itoa(i) + "]"
		internedIndexHashes[i] = typeplan.StrHash64(internedIndexLabels[i])
		if i > 0 {
			internedArgLabels[i] = "arg" + strconv.Itoa(i)
		}
		internedArgHashes[i] = typeplan.StrHash64(internedArgLabels[i])
	}
}

// indexLabel returns the "[i]" edge label, interned for small indices.
func indexLabel(i int) string {
	if i < nInternedLabels {
		return internedIndexLabels[i]
	}
	return "[" + strconv.Itoa(i) + "]"
}

// indexLabelView returns indexLabel(i) without allocating: a label past
// the interned ones is built in the walker's label buffer, and the view
// is valid until the next call. Fingerprint hashes it and DiffLive
// compares it; Capture keeps owned labels.
func (w *walker) indexLabelView(i int) string {
	if i < nInternedLabels {
		return internedIndexLabels[i]
	}
	w.label = append(strconv.AppendInt(append(w.label[:0], '['), int64(i), 10), ']')
	return unsafe.String(unsafe.SliceData(w.label), len(w.label))
}

// rootLabel returns the label of root i ("recv", then "argN"), interned
// for small indices.
func rootLabel(i int) string {
	if i < nInternedLabels {
		return internedArgLabels[i]
	}
	return "arg" + strconv.Itoa(i)
}

// indexLabelHash returns strHash64 of indexLabel(i).
func (w *walker) indexLabelHash(i int) uint64 {
	if i < nInternedLabels {
		return internedIndexHashes[i]
	}
	return typeplan.StrHash64(w.indexLabelView(i))
}

// rootLabelHash returns strHash64 of rootLabel(i).
func rootLabelHash(i int) uint64 {
	if i < nInternedLabels {
		return internedArgHashes[i]
	}
	return typeplan.StrHash64(rootLabel(i))
}
