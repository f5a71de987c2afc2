package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
	"dpfsm/internal/telemetry"
)

// pinnedMachine builds the machine of one accounting case from its own
// seed, so the cases do not depend on each other's draws.
func pinnedMachine(kind string, n, k int, seed int64) *fsm.DFA {
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case "converging":
		return fsm.RandomConverging(rng, n, k, 40, 0.3)
	case "permutation":
		return fsm.RandomPermutation(rng, n, k, 0.3)
	default:
		return fsm.Random(rng, n, k, 0.3)
	}
}

// The enumerative accounting of every kernel at both state widths is
// pinned: the gathers, §4.2 shuffles and §5.2 factor calls and wins a
// fixed machine and input produce. They feed the served
// shuffles/symbol and convergence-rate figures, so a kernel rewrite
// must leave them exactly where they were. DriveStats pins the
// final-state query (one chunk, and three chunks through the
// composition-vector path); the sink pins the φ path, which DriveStats
// does not cover.
func TestKernelAccountingPinned(t *testing.T) {
	type counts struct{ gathers, shuffles, calls, wins int64 }
	cases := []struct {
		kind     string
		n, k     int
		strategy Strategy
		// want is Drive at procs 1, Drive at procs 3, and Run with φ at
		// procs 1 (read from the sink).
		want [3]counts
	}{
		{"converging", 200, 8, Convergence, [3]counts{{8, 39221, 2, 2}, {29, 39611, 7, 7}, {3003, 39221, 3, 3}}},
		{"random", 256, 4, Convergence, [3]counts{{72, 52976, 3, 3}, {211, 68432, 8, 8}, {3007, 52976, 7, 7}}},
		{"permutation", 256, 4, Convergence, [3]counts{{3000, 768000, 46, 0}, {3000, 768000, 45, 0}, {3000, 768000, 46, 0}}},
		{"converging", 300, 8, Convergence, [3]counts{{7, 57342, 2, 2}, {17, 58026, 5, 5}, {3003, 57342, 3, 3}}},
		{"random", 400, 3, Convergence, [3]counts{{132, 99600, 3, 3}, {411, 121675, 11, 11}, {3005, 99600, 10, 5}}},
		{"permutation", 300, 4, Convergence, [3]counts{{3000, 1083000, 46, 0}, {3000, 1083000, 45, 0}, {3000, 1083000, 46, 0}}},
		{"random", 256, 4, Base, [3]counts{{3000, 768000, 0, 0}, {3000, 768000, 0, 0}, {3000, 768000, 0, 0}}},
		{"random", 300, 4, BaseILP, [3]counts{{3000, 1083000, 0, 0}, {3000, 1083000, 0, 0}, {3000, 1083000, 0, 0}}},
		{"converging", 300, 8, RangeCoalesced, [3]counts{{2999, 14186, 0, 0}, {2997, 14182, 0, 0}, {2999, 14186, 0, 0}}},
		{"converging", 300, 8, RangeConvergence, [3]counts{{0, 5236, 0, 0}, {5, 5242, 1, 1}, {2999, 5236, 0, 0}}},
	}
	for i, tc := range cases {
		name := fmt.Sprintf("%s-%d-%v", tc.kind, tc.n, tc.strategy)
		t.Run(name, func(t *testing.T) {
			d := pinnedMachine(tc.kind, tc.n, tc.k, int64(900+i))
			input := d.RandomInput(rand.New(rand.NewSource(int64(950+i))), 3000)
			drive := func(procs int) counts {
				r := newRunner(t, d, tc.strategy, WithTelemetry(new(telemetry.Metrics)), WithProcs(procs), WithMinChunk(512))
				_, ds, err := r.Drive(context.Background(), input, d.Start(), nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				return counts{ds.Gathers, ds.Shuffles, ds.FactorCalls, ds.FactorWins}
			}
			var m telemetry.Metrics
			newRunner(t, d, tc.strategy, WithTelemetry(&m)).Run(input, d.Start(), func(int, byte, fsm.State) {})
			s := m.Snapshot()
			got := [3]counts{drive(1), drive(3), {s.Gathers, s.Shuffles, s.FactorCalls, s.FactorWins}}
			if got != tc.want {
				t.Errorf("accounting (single, chunked, φ) = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// factor must agree with the gather.Factor oracle at both lane widths,
// call after call on one scratch: a position entry left set by an
// earlier call would misplace a value in a later one.
func TestFactorMatchesGatherFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(960))
	sc := new(scratch)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(600)
		m := 1 + rng.Intn(n)
		distinct := 1 + rng.Intn(m)
		if n <= 256 {
			checkFactor[byte](t, sc, n, m, distinct, rng)
		} else {
			checkFactor[fsm.State](t, sc, n, m, distinct, rng)
		}
	}
}

func checkFactor[T gather.Elem](t *testing.T, sc *scratch, n, m, distinct int, rng *rand.Rand) {
	t.Helper()
	_, s, l, pos := vecs[T](sc, n)
	vals := rng.Perm(n)[:distinct]
	for i := range s[:m] {
		s[i] = T(vals[rng.Intn(distinct)])
	}
	wantL, wantU := gather.Factor(s[:m])
	nu := factor(s[:m], l, pos)
	if nu != len(wantU) || !slices.Equal(s[:nu], wantU) || !slices.Equal(l[:m], wantL) {
		t.Fatalf("n=%d m=%d: factor gave U=%v L=%v, gather.Factor U=%v L=%v", n, m, s[:nu], l[:m], wantU, wantL)
	}
	for v, p := range pos {
		if p != 0 {
			t.Fatalf("n=%d m=%d: position table left pos[%d] = %d", n, m, v, p)
		}
	}
}

// A machine past the byte boundary runs the same allocation-free kernel
// as one below it: Final's allocations do not grow with the state
// width, even on a permutation machine whose convergence checks never
// win.
func TestFinalAllocsFlatAcrossWidths(t *testing.T) {
	if raceEnabled() {
		// Under the race detector sync.Pool drops pooled items at
		// random, so the scratch refills make the counts noise.
		t.Skip("allocation counts are not deterministic under -race")
	}
	allocs := func(n int) float64 {
		rng := rand.New(rand.NewSource(int64(970 + n)))
		d := fsm.RandomPermutation(rng, n, 4, 0.3)
		input := d.RandomInput(rng, 64<<10)
		r := newRunner(t, d, Convergence)
		r.Final(input, d.Start()) // fill the scratch pool
		return testing.AllocsPerRun(5, func() { r.Final(input, d.Start()) })
	}
	if a200, a300 := allocs(200), allocs(300); a300 > a200 {
		t.Errorf("Final allocates %v times per run at 300 states, %v at 200", a300, a200)
	}
	// A range plan's name vector stays on the stack through the native
	// kernel (rcShuffle is go:noescape).
	rng := rand.New(rand.NewSource(973))
	d := fsm.RandomConverging(rng, 200, 256, 16, 0.3)
	input := d.RandomInput(rng, 64<<10)
	r := newRunner(t, d, RangeCoalesced)
	r.Final(input, d.Start())
	if a := testing.AllocsPerRun(5, func() { r.Final(input, d.Start()) }); a != 0 {
		t.Errorf("range Final allocates %v times per run", a)
	}
}

// RaceEnabled is raceEnabled for the external core_test package.
var RaceEnabled = raceEnabled

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// Range runs account their shuffles without a second walk of the
// input when every range fits one shuffle block (blockRows' closed
// form), and by walking when some range is wider; both must equal the
// Figure 11 model ProfileInput replays, exactly.
func TestRangeAccountingMatchesProfile(t *testing.T) {
	for i, maxRange := range []int{12, 40} {
		rng := rand.New(rand.NewSource(int64(990 + i)))
		d := fsm.RandomConverging(rng, 120, 8, maxRange, 0.3)
		input := d.RandomInput(rng, 3000)
		r := newRunner(t, d, RangeCoalesced, WithTelemetry(new(telemetry.Metrics)))
		if (r.MaxRange() <= gather.Width) != (maxRange <= gather.Width) {
			t.Fatalf("max range %d does not exercise the intended path", r.MaxRange())
		}
		_, ds, err := r.Drive(context.Background(), input, d.Start(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(ProfileInput(d, input).RangeShuffles); ds.Shuffles != want {
			t.Errorf("max range %d: Drive accounted %d shuffles, model %d", r.MaxRange(), ds.Shuffles, want)
		}
	}
}

// The register tails must advance every lane count they take, 1 to 8,
// exactly like the plain per-lane loop: convTail over state columns at
// both widths, rcTail over name tables. Permutation machines keep
// distinct lanes distinct, so a lane mixed up with another shows.
func TestRegisterTailsEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(980))
	d8 := fsm.RandomPermutation(rng, 200, 6, 0.3)
	r8 := newRunner(t, d8, Convergence)
	d16 := fsm.RandomPermutation(rng, 300, 6, 0.3)
	r16 := newRunner(t, d16, Convergence)
	rc := newRunner(t, fsm.RandomPermutation(rng, 200, 6, 0.3), RangeCoalesced)
	for m := 1; m <= 8; m++ {
		checkConvTail(t, r8.colsB, m, d8.RandomInput(rng, 50), rng)
		checkConvTail(t, r16.cols16, m, d16.RandomInput(rng, 50), rng)

		input := rc.d.RandomInput(rng, 50)
		cur := byte(rng.Intn(rc.d.NumSymbols()))
		c := make([]byte, m)
		for i := range c {
			c[i] = byte(rng.Intn(len(rc.rc.u[cur])))
		}
		want := slices.Clone(c)
		wcur := cur
		for _, b := range input {
			want = gather.New(want, rc.rc.fw[wcur].row(b))
			wcur = b
		}
		if got := rc.rcTail(input, cur, c); got != wcur || !slices.Equal(c, want) {
			t.Fatalf("rcTail m=%d: %v (cur %d), want %v (cur %d)", m, c, got, want, wcur)
		}
	}
}

func checkConvTail[T gather.Elem](t *testing.T, cols [][]T, m int, input []byte, rng *rand.Rand) {
	t.Helper()
	s := make([]T, m)
	for i := range s {
		s[i] = T(rng.Intn(len(cols[0])))
	}
	want := slices.Clone(s)
	for _, b := range input {
		want = gather.New(want, cols[b])
	}
	convTail(cols, input, s)
	if !slices.Equal(s, want) {
		t.Fatalf("convTail %T m=%d: %v, want %v", s, m, s, want)
	}
}
