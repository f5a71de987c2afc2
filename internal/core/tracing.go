package core

import (
	"fmt"
	"strings"

	"dpfsm/internal/trace"
)

// Request-scoped tracing (internal/trace) for the core runtime. The
// aggregate telemetry of internal/telemetry answers "how many shuffles
// total"; the spans emitted here answer "how did *this* run converge":
// per-chunk active-width trajectories, shuffle counts under the §4.2
// blocked cost model, and the Figure 5 phase decomposition, attached
// to whatever trace rides the context. The same zero-cost-disabled
// discipline applies — with no trace on the context, the only residual
// cost is one context Value lookup per run.

// Span names the core runtime emits. Exported so explain builders
// (cmd/fsmserve) and tests address spans symbolically.
const (
	SpanSingle       = "core.single"        // block-folded single-core run
	SpanMulticore    = "core.multicore"     // Figure 5 final-state run
	SpanChunked      = "core.chunked"       // Figure 5 run with caller phase 3
	SpanPhase1Chunk  = "core.phase1.chunk"  // one chunk's composition vector
	SpanPhase2       = "core.phase2"        // sequential start-state scan
	SpanPhase3Chunk  = "core.phase3.chunk"  // one chunk's caller re-run
	SpanPhase3Chunk0 = "core.phase3.chunk0" // chunk 0's overlapped phase 3
)

// Attribute keys on core spans.
const (
	AttrStrategy    = "strategy"
	AttrBytes       = "bytes"
	AttrChunks      = "chunks"
	AttrChunk       = "chunk"
	AttrOffset      = "offset"
	AttrGathers     = "gathers"
	AttrShuffles    = "shuffles"
	AttrFactorCalls = "factor_calls"
	AttrFactorWins  = "factor_wins"
	AttrWidthStart  = "width_start"
	AttrWidthFinal  = "width_final"
	AttrConvergedAt = "converged_at" // symbol index entering the register regime; -1 = never
	AttrWidths      = "widths"       // "width@pos" trajectory of factor wins
)

// runStats is one chunk's accounting and the only place the
// enumerative loops note into: gather kernel invocations, emulated
// ⊗16,16 shuffles under the §4.2 blocked cost model, §5.2 convergence
// checks and wins, and the active-vector widths. The schedule keeps one
// per chunk when the run accounts — the runner has a sink or the run is
// traced — and flushes it once at chunk end: into the sink and onto the
// chunk's span (endChunk), and into the run's DriveStats (add), so the
// three agree by construction. Every loop takes it as a nillable
// pointer and skips all bookkeeping when absent.
type runStats struct {
	gathers, shuffles, factorCalls, factorWins int64
	// exits counts the loop exits noted; a chunk with none (the
	// sequential walk) has no widths to report.
	exits                  int
	widthStart, widthFinal int
	// convergedAt is the chunk position at which the run entered the
	// register regime (active width ≤ 8), -1 if it never did.
	convergedAt int
	// off is the chunk offset of the block being run: the loops note
	// block-relative positions.
	off int
	// traced keeps the widths trajectory (the paper's Figure 7 curve for
	// this specific input), which only a span reads.
	traced bool
	widths []widthStep
}

type widthStep struct {
	pos   int
	width int
}

// newRunStats returns a chunk's accumulator when the run accounts, and
// nil otherwise.
func (r *Runner) newRunStats(traced bool) *runStats {
	if r.tel == nil && !traced {
		return nil
	}
	return &runStats{convergedAt: -1, traced: traced}
}

// note records one loop exit's accounting. widthStart keeps its maximum
// across blocks (the vector re-widens at every block boundary);
// widthFinal keeps the last.
func (rs *runStats) note(gathers, shuffles, factorCalls, factorWins int64, highWater, final int) {
	if rs == nil {
		return
	}
	rs.gathers += gathers
	rs.shuffles += shuffles
	rs.factorCalls += factorCalls
	rs.factorWins += factorWins
	rs.exits++
	if highWater > rs.widthStart {
		rs.widthStart = highWater
	}
	rs.widthFinal = final
}

// noteWidth appends one factor-win width step to a traced trajectory.
func (rs *runStats) noteWidth(pos, width int) {
	if rs.traced {
		rs.widths = append(rs.widths, widthStep{pos: rs.off + pos, width: width})
	}
}

// noteConverged records the first entry into the register regime.
func (rs *runStats) noteConverged(pos int) {
	if rs.convergedAt < 0 {
		rs.convergedAt = rs.off + pos
	}
}

// add sums one chunk's accounting into the run's.
func (ds *DriveStats) add(rs *runStats) {
	ds.Gathers += rs.gathers
	ds.Shuffles += rs.shuffles
	ds.FactorCalls += rs.factorCalls
	ds.FactorWins += rs.factorWins
	if rs.exits > 0 {
		ds.ActiveFinalSum += int64(rs.widthFinal)
		ds.ActiveFinalChunks++
	}
}

// endChunk flushes a chunk's accounting (nil: none) to the runner's
// sink and onto sp (nil: untraced), which it closes; the schedule sums
// the same accumulator into the run's DriveStats (add).
func (r *Runner) endChunk(sp *trace.Span, rs *runStats) {
	if t := r.tel; t != nil && rs != nil {
		t.Gathers.Add(rs.gathers)
		t.Shuffles.Add(rs.shuffles)
		t.FactorCalls.Add(rs.factorCalls)
		t.FactorWins.Add(rs.factorWins)
		if rs.exits > 0 {
			t.ActiveHighWater.Observe(int64(rs.widthStart))
			t.ActiveFinal.Observe(int64(rs.widthFinal))
		}
	}
	if sp != nil && rs != nil {
		sp.SetAttrs(rs.attrs()...)
	}
	sp.End()
}

// widthTrajectory renders the factor-win steps as "width@pos" pairs,
// e.g. "14@63,4@67,1@128" — compact enough for a span attribute while
// preserving the Figure 7 shape.
func (rs *runStats) widthTrajectory() string {
	if len(rs.widths) == 0 {
		return ""
	}
	var b strings.Builder
	for i, w := range rs.widths {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d@%d", w.width, w.pos)
	}
	return b.String()
}

// attrs renders the stats as span attributes.
func (rs *runStats) attrs() []trace.Attr {
	out := []trace.Attr{
		trace.Int(AttrGathers, rs.gathers),
		trace.Int(AttrShuffles, rs.shuffles),
		trace.Int(AttrFactorCalls, rs.factorCalls),
		trace.Int(AttrFactorWins, rs.factorWins),
		trace.Int(AttrWidthStart, int64(rs.widthStart)),
		trace.Int(AttrWidthFinal, int64(rs.widthFinal)),
		trace.Int(AttrConvergedAt, int64(rs.convergedAt)),
	}
	if tj := rs.widthTrajectory(); tj != "" {
		out = append(out, trace.Str(AttrWidths, tj))
	}
	return out
}
