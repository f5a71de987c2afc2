//go:build amd64 && !purego

#include "textflag.h"

// func rcShuffle(fw []rcFlat, input []byte, cur byte, c *[16]byte) (last byte, n int)
//
// Each step is c = T_cur[b] ⊗16 c; cur = b: one 16-byte row load and
// one PSHUFB per input byte. rcFlat is {f []byte; w int}: the table's
// data pointer at offset 0, its width at 24, a stride of 32 bytes. The
// row of b starts at f + b·w; buildRCTables leaves spare capacity past
// the last row, so the 16-byte load stays inside the allocation. A
// symbol b ≥ len(fw) stops the loop before it is read through; n is
// the number of bytes consumed.
TEXT ·rcShuffle(SB), NOSPLIT, $0-80
	MOVQ  fw_base+0(FP), DI
	MOVQ  fw_len+8(FP), CX
	MOVQ  input_base+24(FP), SI
	MOVQ  input_len+32(FP), BX
	MOVBQZX cur+48(FP), AX
	MOVQ  c+56(FP), DX
	MOVOU (DX), X0
	MOVQ  SI, R11
	ADDQ  SI, BX
	CMPQ  SI, BX
	JEQ   done

loop:
	MOVBQZX (SI), R10
	CMPQ  R10, CX
	JAE   done
	SHLQ  $5, AX
	MOVQ  (DI)(AX*1), R9
	MOVQ  24(DI)(AX*1), R8
	IMULQ R10, R8
	MOVOU (R9)(R8*1), X1
	PSHUFB X0, X1
	MOVO  X1, X0
	MOVQ  R10, AX
	INCQ  SI
	CMPQ  SI, BX
	JNE   loop

done:
	MOVOU X0, (DX)
	MOVB  AX, last+64(FP)
	SUBQ  R11, SI
	MOVQ  SI, n+72(FP)
	RET

// func cpuSSSE3() bool
TEXT ·cpuSSSE3(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	SHRL  $9, CX
	ANDL  $1, CX
	MOVB  CX, ret+0(FP)
	RET
