package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/zipchannel/zipchannel/internal/taint"
)

// Report is the human-readable output of an analysis run, mirroring the
// paper's Fig 2-4: one entry per gadget with the taint breakdown of the
// dereferenced address.
type Report struct {
	Program    string
	Findings   []*Finding
	InstrCount uint64
	TaintOps   uint64
}

// Report finalizes the analysis and returns findings in discovery order.
func (a *Analyzer) Report(programName string) *Report {
	r := &Report{
		Program:    programName,
		InstrCount: a.instrCount,
		TaintOps:   a.taintOps,
	}
	r.Findings = append(r.Findings, a.order...)
	return r
}

// CacheLineOffsetBits is log2 of the cache line size: the address bits a
// cache side channel cannot observe (§IV-A, "the 6 least significant
// bits are not visible to the attacker").
const CacheLineOffsetBits = 6

// CacheVisible reports whether the gadget leaks through a cache channel
// of the given line granularity: a data-flow gadget whose address taint
// is confined to the line-offset bits is real taint flow but invisible
// to Prime+Probe/Flush+Reload. Control-flow gadgets are always visible
// (the executed code line itself is the signal). This is how the §VIII
// oblivious-histogram mitigation shows up as safe: its remaining
// address dependence sits entirely below bit 6.
func (f *Finding) CacheVisible(lineOffsetBits int) bool {
	if f.Kind == ControlFlow {
		return true
	}
	for _, s := range f.Samples {
		if s.AddrTaint.AnyTainted(lineOffsetBits, taint.WordBits) {
			return true
		}
	}
	return false
}

// DataFlowFindings returns only the tainted-address gadgets.
func (r *Report) DataFlowFindings() []*Finding {
	return r.byKind(DataFlow)
}

// CacheVisibleFindings returns only the gadgets observable at standard
// 64-byte-line granularity.
func (r *Report) CacheVisibleFindings() []*Finding {
	var out []*Finding
	for _, f := range r.Findings {
		if f.CacheVisible(CacheLineOffsetBits) {
			out = append(out, f)
		}
	}
	return out
}

// ControlFlowFindings returns only the tainted-branch gadgets.
func (r *Report) ControlFlowFindings() []*Finding {
	return r.byKind(ControlFlow)
}

func (r *Report) byKind(k GadgetKind) []*Finding {
	var out []*Finding
	for _, f := range r.Findings {
		if f.Kind == k {
			out = append(out, f)
		}
	}
	return out
}

// String renders the whole report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TaintChannel report for %q\n", r.Program)
	fmt.Fprintf(&b, "  instructions executed: %d (taint-touching: %d)\n", r.InstrCount, r.TaintOps)
	fmt.Fprintf(&b, "  leakage gadgets found: %d\n\n", len(r.Findings))
	for _, f := range r.Findings {
		b.WriteString(f.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// Render renders one finding in the style of the paper's Fig 2: the
// instruction, then for each retained sample the tainted operand value and
// the per-tag bit matrix.
func (f *Finding) Render() string {
	var b strings.Builder
	switch f.Kind {
	case DataFlow:
		b.WriteString("Taint-dependent memory access\n")
	case ControlFlow:
		b.WriteString("Taint-dependent branch\n")
	}
	fmt.Fprintf(&b, "  pc %d: %s   (triggered %d times)\n", f.PC, f.Instr.String(), f.Count)
	if !f.CacheVisible(CacheLineOffsetBits) {
		b.WriteString("  NOTE: address taint confined to bits 0-5; invisible at cache-line granularity\n")
	}
	for i, s := range f.Samples {
		if f.Kind == DataFlow {
			fmt.Fprintf(&b, "  sample %d: step %d, address = 0x%x (tainted)\n", i, s.Step, s.Addr)
			b.WriteString(indent(RenderTaintMatrix(&s.AddrTaint), "    "))
		} else {
			fmt.Fprintf(&b, "  sample %d: step %d, flags set at pc %d, tags %s\n",
				i, s.Step, s.Addr, s.AddrTaint.Bit(0).String())
		}
	}
	return b.String()
}

// RenderTaintMatrix renders the per-bit taint of a word exactly in the
// layout of the paper's Fig 2: one row per contributing input byte with
// 'x' marks at its bit positions, and a footer row of bit indices
// (most-significant on the left).
func RenderTaintMatrix(w *taint.Word) string {
	// Collect tags and the highest tainted bit.
	tagBits := map[taint.Tag][]int{}
	hi := 15 // show at least 16 bit positions, like Fig 2
	for i := 0; i < taint.WordBits; i++ {
		s := w.Bit(i)
		if s.IsEmpty() {
			continue
		}
		if i > hi {
			hi = i
		}
		for _, t := range s.Tags() {
			tagBits[t] = append(tagBits[t], i)
		}
	}
	if len(tagBits) == 0 {
		return "(untainted)\n"
	}
	tags := make([]taint.Tag, 0, len(tagBits))
	for t := range tagBits {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })

	// Label column width.
	labelW := 0
	for _, t := range tags {
		if n := len(fmt.Sprintf("%d", t)); n > labelW {
			labelW = n
		}
	}

	var b strings.Builder
	for _, t := range tags {
		set := map[int]bool{}
		for _, bit := range tagBits[t] {
			set[bit] = true
		}
		fmt.Fprintf(&b, "%*d: ", labelW, t)
		for bit := hi; bit >= 0; bit-- {
			if set[bit] {
				b.WriteString("| x")
			} else {
				b.WriteString("|  ")
			}
		}
		b.WriteString("|\n")
	}
	// Footer: bit indices.
	b.WriteString(strings.Repeat(" ", labelW+2))
	for bit := hi; bit >= 0; bit-- {
		fmt.Fprintf(&b, "|%2d", bit)
	}
	b.WriteString("|\n")
	return b.String()
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

// DiffTraces compares two reduced traces (same program, different inputs)
// and returns the PCs where the executions diverge in their
// taint-touching instruction sequence. This is how TaintChannel discovered
// the mainSort/fallbackSort control-flow divergence (§VI): different
// inputs light up different gadget sites.
func DiffTraces(a, b []ReducedEvent) []int {
	seen := map[int]bool{}
	var diverging []int
	count := func(tr []ReducedEvent) map[int]int {
		m := map[int]int{}
		for _, e := range tr {
			m[e.PC]++
		}
		return m
	}
	ca, cb := count(a), count(b)
	for pc := range ca {
		if ca[pc] != cb[pc] && !seen[pc] {
			seen[pc] = true
			diverging = append(diverging, pc)
		}
	}
	for pc := range cb {
		if ca[pc] != cb[pc] && !seen[pc] {
			seen[pc] = true
			diverging = append(diverging, pc)
		}
	}
	sort.Ints(diverging)
	return diverging
}
