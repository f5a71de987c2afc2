package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
)

// FuzzRangeKernel runs random range-coalesced plans over 256 symbols,
// so inputs reach the last row (b = 255) of every table. Each plan must
// answer exactly as its machine on whichever path it takes; a plan
// whose maximum range exceeds the register width must take the scalar
// path; and where the native kernel runs it must advance every start
// width 1–16 exactly as the pure-Go name loop, on inputs of length 0,
// 1 and longer.
func FuzzRangeKernel(f *testing.F) {
	f.Add(int64(1), uint8(4), []byte{})
	f.Add(int64(2), uint8(16), []byte{255})
	f.Add(int64(3), uint8(9), []byte{0, 255, 255, 7, 128, 255})
	f.Add(int64(4), uint8(1), bytes.Repeat([]byte{3, 255}, 40))
	f.Add(int64(5), uint8(30), bytes.Repeat([]byte{255, 0, 17}, 100))
	f.Fuzz(func(t *testing.T, seed int64, maxRange uint8, input []byte) {
		rng := rand.New(rand.NewSource(seed))
		mr := 1 + int(maxRange)%40
		n := mr + rng.Intn(48)
		d := fsm.RandomConverging(rng, n, 256, mr, 0.3)
		r := newRunner(t, d, RangeCoalesced)
		wide := d.MaxRangeSize() > gather.Width
		if got := r.rcNative(); got != (nativeRC && !wide) {
			t.Fatalf("max range %d: rcNative = %v (native build %v)", d.MaxRangeSize(), got, nativeRC)
		}
		probes := [][]byte{input[:0], input[:min(1, len(input))], {255}, input}
		if wide {
			// A narrow first symbol then a wide one: the name vector is
			// at most 16 lanes, yet the wide step yields names ≥ 16.
			narrow := slices.IndexFunc(r.ranges, func(v int) bool { return v <= gather.Width })
			widest := slices.Index(r.ranges, r.maxRange)
			if narrow >= 0 {
				probes = append(probes, append([]byte{byte(narrow), byte(widest), byte(narrow)}, input...))
			}
		}
		for _, in := range probes {
			start := fsm.State(rng.Intn(n))
			if got, want := r.Final(in, start), d.Run(in, start); got != want {
				t.Fatalf("max range %d, %d bytes from %d: Final %d, machine %d", d.MaxRangeSize(), len(in), start, got, want)
			}
			for q, got := range r.CompositionVector(in) {
				if want := d.Run(in, fsm.State(q)); got != want {
					t.Fatalf("max range %d, %d bytes: composition entry %d is %d, machine %d", d.MaxRangeSize(), len(in), q, got, want)
				}
			}
			if wide || !nativeRC {
				continue
			}
			for m := 1; m <= gather.Width; m++ {
				cur := byte(rng.Intn(256))
				c := make([]byte, m)
				for i := range c {
					c[i] = byte(rng.Intn(len(r.rc.u[cur])))
				}
				want := slices.Clone(c)
				wcur := r.rcScalar(in, cur, want)
				if got := r.rcShuffle16(in, cur, c); got != wcur || !slices.Equal(c, want) {
					t.Fatalf("width %d, %d bytes from symbol %d: native %v (cur %d), pure Go %v (cur %d)", m, len(in), cur, c, got, want, wcur)
				}
			}
		}
	})
}

// The native kernel reads rcFlat at fixed offsets and loads 16 bytes
// from the start of any row, so the layout and the spare capacity past
// the last row are pinned here, for tables built by New and rebuilt by
// UnmarshalPlan alike.
func TestRCFlatLayout(t *testing.T) {
	if runtime.GOARCH == "amd64" {
		var f rcFlat
		if s, of, ow := unsafe.Sizeof(f), unsafe.Offsetof(f.f), unsafe.Offsetof(f.w); s != 32 || of != 0 || ow != 24 {
			t.Fatalf("rcFlat size %d, f at %d, w at %d; rckernel_amd64.s reads 32, 0, 24", s, of, ow)
		}
	}
	rng := rand.New(rand.NewSource(990))
	for _, k := range []int{3, 256} {
		d := fsm.RandomConverging(rng, 40, k, 16, 0.3)
		r := newRunner(t, d, RangeCoalesced)
		data, err := r.Plan.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		p, err := UnmarshalPlan(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, rc := range []*rcTables{r.rc, p.rc} {
			for a, fl := range rc.fw {
				if spare := cap(fl.f) - len(fl.f); spare < gather.Width-1 {
					t.Fatalf("k=%d symbol %d: %d bytes of spare capacity, a 16-byte row load needs %d", k, a, spare, gather.Width-1)
				}
			}
		}
	}
}

// Inputs longer than one kernel call cross rcBlock boundaries and
// must advance exactly as the pure-Go loop over the whole input.
func TestRangeKernelBlocks(t *testing.T) {
	if !nativeRC {
		t.Skip("no native range kernel in this build")
	}
	rng := rand.New(rand.NewSource(993))
	d := fsm.RandomPermutation(rng, 16, 256, 0.3)
	r := newRunner(t, d, RangeCoalesced)
	input := d.RandomInput(rng, 2*rcBlock+7)
	for _, m := range []int{1, 16} {
		c := make([]byte, m)
		for i := range c {
			c[i] = byte(i)
		}
		want := slices.Clone(c)
		wcur := r.rcScalar(input, input[0], want)
		if got := r.rcShuffle16(input, input[0], c); got != wcur || !slices.Equal(c, want) {
			t.Fatalf("width %d over %d bytes: native %v (cur %d), pure Go %v (cur %d)", m, len(input), c, got, want, wcur)
		}
	}
}

// A byte outside a small alphabet stops the native kernel before it
// reads through it; the run then fails in the scalar loop, as it does
// on the pure-Go path, instead of reading past the tables.
func TestRangeKernelOutOfAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(991))
	d := fsm.RandomConverging(rng, 30, 4, 8, 0.3)
	r := newRunner(t, d, RangeCoalesced)
	late := d.RandomInput(rng, rcBlock+9)
	late[rcBlock+3] = 4
	for _, in := range [][]byte{{1, 2, 3, 200}, {0, 9}, {2, 3, 0, 1, 4, 0}, late} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d-byte input with a symbol ≥ 4: Final returned", len(in))
				}
			}()
			r.Final(in, d.Start())
		}()
	}
}

// BenchmarkRangeKernel advances a pinned range machine's name vector
// over 1 MiB, native kernel against the pure-Go name loop, from the
// first symbol's full width as rcLoop does.
func BenchmarkRangeKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(992))
	d := fsm.RandomConverging(rng, 200, 256, 16, 0.3)
	r := newRunner(b, d, RangeCoalesced)
	input := d.RandomInput(rng, 1<<20)
	a0 := input[0]
	kernels := []struct {
		name string
		run  func([]byte, byte, []byte) byte
		ok   bool
	}{
		{"native", r.rcShuffle16, r.rcNative()},
		{"purego", r.rcScalar, true},
	}
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			if !k.ok {
				b.Skip("no native range kernel in this build")
			}
			c := make([]byte, len(r.rc.u[a0]))
			b.SetBytes(int64(len(input) - 1))
			for range b.N {
				for i := range c {
					c[i] = byte(i)
				}
				k.run(input[1:], a0, c)
			}
		})
	}
}
