//go:build amd64 && !purego

package core

// nativeRC reports whether rcShuffle can run: it needs SSSE3's PSHUFB.
var nativeRC = cpuSSSE3()

// rcShuffle advances the 16-lane name vector c over input, from
// current symbol cur, with one PSHUFB per byte (rckernel_amd64.s). Every
// name must be < 16 and every table at most 16 wide. It stops before
// the first byte ≥ len(fw) and returns the current symbol and the bytes
// consumed.
//
//go:noescape
func rcShuffle(fw []rcFlat, input []byte, cur byte, c *[16]byte) (last byte, n int)

func cpuSSSE3() bool
