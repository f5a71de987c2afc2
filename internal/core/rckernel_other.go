//go:build !amd64 || purego

package core

// nativeRC is false off amd64 and under the purego tag: range plans run
// on the pure-Go name loops.
const nativeRC = false

func rcShuffle(fw []rcFlat, input []byte, cur byte, c *[16]byte) (last byte, n int) {
	panic("core: no native range kernel in this build")
}
