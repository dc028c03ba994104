package ssd

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// Span is one recorded resource occupancy: which resource did what,
// when. Span recording (Config.RecordSpans) exists to regenerate the
// paper's execution-timeline figures (Figs. 7 and 8) from an actual
// simulation rather than by hand.
type Span struct {
	Resource string // "die0", "ch0", "ecc0"
	Label    string // command tag: "A", "B", "A'", ...
	Start    sim.Time
	End      sim.Time
}

// addSpan records an occupancy into the in-memory span list (when
// RecordSpans is set) and the configured tracer (when Config.Trace is
// set). Stations only call it when at least one sink is active.
func (s *SSD) addSpan(resource, label string, start, end sim.Time) {
	if s.cfg.RecordSpans {
		s.spans = append(s.spans, Span{Resource: resource, Label: label, Start: start, End: end})
	}
	s.cfg.Trace.Span(resource, label, start, end)
}

// Spans returns the recorded occupancies, ordered by start time.
func (s *SSD) Spans() []Span {
	out := append([]Span(nil), s.spans...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Resource < out[j].Resource
	})
	return out
}

// cmdLabel names the n-th read command like the paper labels them:
// A, B, C, ..., Z, A1, B1, ...
func cmdLabel(n int) string {
	letter := string(rune('A' + n%26))
	if n < 26 {
		return letter
	}
	//riflint:allow alloc -- span recording only: labels are minted when spans are on
	return fmt.Sprintf("%s%d", letter, n/26)
}

// RenderGantt draws spans as a text Gantt chart: one row per
// resource, one column per usPerCol microseconds. Retry occupancies
// (labels ending in ') render with their base letter lowercased so
// the retry phase is visible.
func RenderGantt(spans []Span, usPerCol float64) string {
	if len(spans) == 0 {
		return "(no spans recorded)\n"
	}
	var resources []string
	seen := map[string]bool{}
	var maxEnd sim.Time
	for _, sp := range spans {
		if !seen[sp.Resource] {
			seen[sp.Resource] = true
			resources = append(resources, sp.Resource)
		}
		if sp.End > maxEnd {
			maxEnd = sp.End
		}
	}
	sort.Strings(resources)
	cols := int(maxEnd.Microseconds()/usPerCol) + 1
	if cols > 400 {
		cols = 400
	}
	rows := make(map[string][]byte, len(resources))
	for _, r := range resources {
		rows[r] = []byte(strings.Repeat(".", cols))
	}
	for _, sp := range spans {
		row := rows[sp.Resource]
		glyph := byte('?')
		if len(sp.Label) > 0 {
			glyph = sp.Label[0]
			if strings.HasSuffix(sp.Label, "'") {
				glyph = byte(strings.ToLower(sp.Label[:1])[0])
			}
		}
		c0 := int(sp.Start.Microseconds() / usPerCol)
		c1 := int(sp.End.Microseconds() / usPerCol)
		for c := c0; c <= c1 && c < cols; c++ {
			row[c] = glyph
		}
	}
	var b strings.Builder
	for _, r := range resources {
		fmt.Fprintf(&b, "%-6s |%s|\n", r, rows[r])
	}
	fmt.Fprintf(&b, "%-6s  0%*s\n", "us", cols-1, fmt.Sprintf("%.0f", float64(cols)*usPerCol))
	return b.String()
}
