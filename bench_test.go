package dpfsm

// One testing.B benchmark per figure of the paper's evaluation (the
// paper has no numbered tables). These mirror cmd/fsmbench with
// fixed, benchmark-friendly sizes; run
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured comparison. The
// corpus and inputs are deterministic (fixed seeds), so runs are
// directly comparable.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dpfsm/internal/analysis"
	"dpfsm/internal/core"
	"dpfsm/internal/fsm"
	"dpfsm/internal/gather"
	"dpfsm/internal/htmltok"
	"dpfsm/internal/huffman"
	"dpfsm/internal/regex"
	"dpfsm/internal/semiring"
	"dpfsm/internal/speculative"
	"dpfsm/internal/workload"
	"dpfsm/internal/xmltok"
)

// ---- shared fixtures, built once ----

var fixtures struct {
	once     sync.Once
	corpus   []*fsm.DFA
	wiki     []byte // 1 MiB natural text
	html     []byte // 2 MiB page
	bookFSMs []*huffman.DecoderFSM
	bookEnc  huffman.Encoded
	bookDec  *huffman.DecoderFSM
	bookCoal *huffman.CoalescedDecoder
	bookCod  *huffman.Codec
}

func setup(b *testing.B) {
	b.Helper()
	fixtures.once.Do(func() {
		specs := workload.SnortRegexes(1, 120)
		fixtures.corpus, _ = workload.CompileCorpus(specs, 20000)
		fixtures.wiki = workload.WikiText(2, 1<<20)
		fixtures.html = workload.HTMLPage(3, 2<<20)

		for bk := 0; bk < 6; bk++ {
			text := workload.Book(int64(1000+bk), 1<<17)
			c, err := huffman.FromSample(text)
			if err != nil {
				continue
			}
			f, err := c.DecoderFSM()
			if err != nil {
				continue
			}
			fixtures.bookFSMs = append(fixtures.bookFSMs, f)
		}

		// One payload codec for decode benches: trained on book 0 plus
		// the wiki payload so every byte is covered.
		text := append(workload.Book(1000, 1<<17), fixtures.wiki...)
		cod, err := huffman.FromSample(text)
		if err != nil {
			panic(err)
		}
		f, err := cod.DecoderFSM()
		if err != nil {
			panic(err)
		}
		enc, err := cod.Encode(fixtures.wiki)
		if err != nil {
			panic(err)
		}
		fixtures.bookCod = cod
		fixtures.bookDec = f
		fixtures.bookCoal = f.NewCoalescedDecoder()
		fixtures.bookEnc = enc
	})
	if len(fixtures.corpus) == 0 {
		b.Fatal("corpus failed to build")
	}
}

// pickMachine returns a corpus machine in the given state range.
func pickMachine(b *testing.B, loStates, hiStates, maxRange int) *fsm.DFA {
	b.Helper()
	for _, d := range fixtures.corpus {
		if d.NumStates() >= loStates && d.NumStates() <= hiStates && d.MaxRangeSize() <= maxRange {
			return d
		}
	}
	b.Skipf("no corpus machine with states in [%d,%d] range ≤ %d", loStates, hiStates, maxRange)
	return nil
}

// ---- Figure 6: gather microkernel ----

func BenchmarkFig6Gather(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const numTables = 256
	for _, mode := range []string{"nonsimd", "simd-emulated"} {
		for _, n := range []int{16, 64, 256} {
			for _, m := range []int{1, 8, 16, 64} {
				if m > n {
					continue
				}
				tables := make([][]byte, numTables)
				for i := range tables {
					t := make([]byte, n)
					for j := range t {
						t[j] = byte(rng.Intn(n))
					}
					tables[i] = t
				}
				s := make([]byte, m)
				b.Run(fmt.Sprintf("%s/m=%d/n=%d", mode, m, n), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						t := tables[i&(numTables-1)]
						if mode == "simd-emulated" {
							gather.SIMDInto(s, s, t)
						} else {
							gather.Into(s, s, t)
						}
					}
				})
			}
		}
	}
}

func BenchmarkFig6SequentialBaseline(b *testing.B) {
	rng := rand.New(rand.NewSource(66))
	const numTables = 256
	n := 256
	tables := make([][]byte, numTables)
	for i := range tables {
		t := make([]byte, n)
		for j := range t {
			t[j] = byte(rng.Intn(n))
		}
		tables[i] = t
	}
	var q byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q = tables[i&(numTables-1)][q]
	}
	_ = q
}

// ---- Figure 8: adversarial convergence exploration ----

func BenchmarkFig8Adversarial(b *testing.B) {
	setup(b)
	d := pickMachine(b, 10, 200, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.AdversarialConvergence(d, 16, 1<<15)
	}
}

// ---- Figure 9: random-input convergence ----

func BenchmarkFig9RandomConvergence(b *testing.B) {
	setup(b)
	d := pickMachine(b, 10, 200, 256)
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.RandomConvergence(d, rng, fixtures.wiki, 10, 500)
	}
}

// ---- Figure 12: corpus compilation and structure ----

func BenchmarkFig12CompileCorpus(b *testing.B) {
	specs := workload.SnortRegexes(12, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.CompileCorpus(specs, 20000)
	}
}

// ---- Figure 13: single-core strategies over the baseline ----

func BenchmarkFig13SingleCore(b *testing.B) {
	setup(b)
	input := fixtures.wiki[:1<<19]
	for _, tc := range []struct {
		name             string
		loS, hiS, maxRng int
	}{
		{"small", 4, 32, 16},
		{"medium", 33, 256, 256},
		{"large", 257, 20000, 1 << 30},
	} {
		d := pickMachine(b, tc.loS, tc.hiS, 1<<30)
		if d == nil {
			continue
		}
		for _, strat := range []core.Strategy{core.Sequential, core.Base, core.BaseILP, core.Convergence, core.RangeCoalesced, core.RangeConvergence} {
			if (strat == core.RangeCoalesced || strat == core.RangeConvergence) && d.MaxRangeSize() > 256 {
				continue
			}
			r, err := core.New(d, core.WithStrategy(strat))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s(n=%d)/%s", tc.name, d.NumStates(), strat), func(b *testing.B) {
				b.SetBytes(int64(len(input)))
				for i := 0; i < b.N; i++ {
					r.Final(input, d.Start())
				}
			})
		}
	}
}

// Ablation: convergence-check cadence (§5.2's "use factor sparingly").
func BenchmarkConvCheckCadenceAblation(b *testing.B) {
	setup(b)
	d := pickMachine(b, 16, 256, 256)
	input := fixtures.wiki[:1<<18]
	for _, k := range []int{1, 8, 64, 512} {
		r, err := core.New(d, core.WithStrategy(core.Convergence), core.WithConvCheckEvery(k))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("every=%d", k), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				r.Final(input, d.Start())
			}
		})
	}
}

// ---- Figure 14: multicore scaling on Snort machines ----

func BenchmarkFig14Multicore(b *testing.B) {
	setup(b)
	d := pickMachine(b, 8, 64, 32)
	input := fixtures.wiki
	for _, procs := range []int{1, 2, 4} {
		r, err := core.New(d, core.WithStrategy(core.Convergence), core.WithProcs(procs))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				r.Final(input, d.Start())
			}
		})
	}
}

// ---- Figure 15: Huffman machine construction ----

func BenchmarkFig15HuffmanBuild(b *testing.B) {
	text := workload.Book(1500, 1<<17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := huffman.FromSample(text)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.DecoderFSM(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 16: Huffman single-core decoders ----

func BenchmarkFig16Huffman(b *testing.B) {
	setup(b)
	enc := fixtures.bookEnc
	b.Run("bitwalk", func(b *testing.B) {
		small := enc
		small.Data = enc.Data[:1<<16]
		small.NBits = len(small.Data) * 8
		small.NOut = small.NBits // ≥1 bit per symbol bounds the output
		b.SetBytes(int64(len(small.Data)))
		for i := 0; i < b.N; i++ {
			fixtures.bookCod.DecodeBitwalk(small)
		}
	})
	b.Run("sequential-unrolled", func(b *testing.B) {
		b.SetBytes(int64(len(enc.Data)))
		for i := 0; i < b.N; i++ {
			fixtures.bookDec.DecodeSequential(enc)
		}
	})
	b.Run("range-coalesced", func(b *testing.B) {
		b.SetBytes(int64(len(enc.Data)))
		for i := 0; i < b.N; i++ {
			fixtures.bookCoal.Decode(enc)
		}
	})
}

// ---- Figure 17: Huffman multicore decode ----

func BenchmarkFig17HuffmanMulticore(b *testing.B) {
	setup(b)
	enc := fixtures.bookEnc
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			b.SetBytes(int64(len(enc.Data)))
			for i := 0; i < b.N; i++ {
				if _, err := fixtures.bookDec.DecodeParallel(enc, core.WithProcs(procs)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 18: HTML tokenization ----

func BenchmarkFig18HTMLTok(b *testing.B) {
	setup(b)
	input := fixtures.html
	b.Run("switch-baseline", func(b *testing.B) {
		b.SetBytes(int64(len(input)))
		for i := 0; i < b.N; i++ {
			htmltok.TokenizeSwitch(input)
		}
	})
	tk, err := htmltok.NewTokenizer(core.WithStrategy(core.Convergence))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("table-sequential", func(b *testing.B) {
		b.SetBytes(int64(len(input)))
		for i := 0; i < b.N; i++ {
			tk.TokenizeTable(input)
		}
	})
	for _, procs := range []int{1, 2, 4} {
		ptk, err := htmltok.NewTokenizer(core.WithStrategy(core.Convergence), core.WithProcs(procs))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("parallel/threads=%d", procs), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				ptk.Tokenize(input)
			}
		})
	}
}

// Ablation for §5.3's byte-versus-word claim: identical gathers with
// byte-encoded names (16 lanes/reg) versus direct uint16 states
// (8 lanes/reg) in the emulated dataflow, plus the scalar kernels.
func BenchmarkByteVsWordGather(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	const n, m = 16, 16
	tb := make([]byte, n)
	tw := make([]uint16, n)
	for i := 0; i < n; i++ {
		v := rng.Intn(n)
		tb[i] = byte(v)
		tw[i] = uint16(v)
	}
	sb := make([]byte, m)
	sw := make([]uint16, m)
	b.Run("byte-emulated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gather.SIMDInto(sb, sb, tb)
		}
	})
	b.Run("word-emulated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gather.SIMDInto16(sw, sw, tw)
		}
	})
	b.Run("byte-scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gather.Into(sb, sb, tb)
		}
	})
	b.Run("word-scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gather.Into(sw, sw, tw)
		}
	})
}

// ---- §7 baselines: speculative parallelization & XML claim ----

func BenchmarkSpeculativeVsEnumerative(b *testing.B) {
	setup(b)
	d := pickMachine(b, 8, 64, 32)
	input := fixtures.wiki
	warm := input[:4096]
	for _, procs := range []int{2, 4} {
		sp := speculative.New(d, procs, warm)
		b.Run(fmt.Sprintf("speculative/procs=%d", procs), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				sp.Final(input, d.Start())
			}
		})
		r, err := core.New(d, core.WithStrategy(core.Convergence), core.WithProcs(procs))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("enumerative/procs=%d", procs), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				r.Final(input, d.Start())
			}
		})
	}
}

func BenchmarkXMLTok(b *testing.B) {
	// §7 claim: XML machines are one-shuffle-per-symbol small. The
	// HTML page generator's output is close enough to XML-shaped
	// markup for a lexing benchmark.
	setup(b)
	tk, err := xmltok.NewTokenizer(core.WithStrategy(core.Convergence))
	if err != nil {
		b.Fatal(err)
	}
	input := fixtures.html
	b.Run("sequential", func(b *testing.B) {
		b.SetBytes(int64(len(input)))
		for i := 0; i < b.N; i++ {
			tk.TokenizeSequential(input)
		}
	})
	for _, procs := range []int{2, 4} {
		ptk, err := xmltok.NewTokenizer(core.WithStrategy(core.Convergence), core.WithProcs(procs))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("parallel/procs=%d", procs), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				ptk.Tokenize(input)
			}
		})
	}
}

func BenchmarkHuffmanParallelEncode(b *testing.B) {
	setup(b)
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			b.SetBytes(int64(len(fixtures.wiki)))
			for i := 0; i < b.N; i++ {
				if _, err := fixtures.bookCod.ParallelEncode(fixtures.wiki, procs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRegexFinder(b *testing.B) {
	setup(b)
	f, err := regex.NewFinder(`wget http`, regex.Options{})
	if err != nil {
		b.Fatal(err)
	}
	input := append([]byte{}, fixtures.wiki...)
	copy(input[len(input)-2048:], []byte("... wget http://x ..."))
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := f.Find(input); !ok {
			b.Fatal("lost the needle")
		}
	}
}

// ---- §2.2 baselines: semiring formulations ----

func BenchmarkSemiringBaselines(b *testing.B) {
	setup(b)
	d := pickMachine(b, 8, 64, 1<<30)
	input := fixtures.wiki[:1<<12] // matrix products are O(n²–n³) per symbol
	b.Run("matrix-product", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			semiring.MatrixFinal(d, input, d.Start())
		}
	})
	b.Run("func-composition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			semiring.FuncProduct(d, input, 4096)
		}
	})
	r, _ := core.New(d, core.WithStrategy(core.Convergence))
	b.Run("enumerative-convergence", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.CompositionVector(input)
		}
	})
}
