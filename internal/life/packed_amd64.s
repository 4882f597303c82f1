#include "textflag.h"

// Nibble popcounts 0..15, once per 128-bit lane, for VPSHUFB.
DATA nibblePop<>+0x00(SB)/8, $0x0302020102010100
DATA nibblePop<>+0x08(SB)/8, $0x0403030203020201
DATA nibblePop<>+0x10(SB)/8, $0x0302020102010100
DATA nibblePop<>+0x18(SB)/8, $0x0403030203020201
GLOBL nibblePop<>(SB), RODATA|NOPTR, $32

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func lifeRun4(up, cur, down, out *uint64, n int) int64
//
// Each iteration computes next for words i..i+3 (one per 64-bit lane) as
// stepScalar's loop does for one word. The west and east neighbor columns
// come from loads 8 bytes before and after, so no lane crosses a register.
// Go operand order puts the destination last: VPANDN a, b, x is x = ^b & a.
TEXT ·lifeRun4(SB), NOSPLIT, $0-48
	MOVQ up+0(FP), SI
	MOVQ cur+8(FP), DI
	MOVQ down+16(FP), DX
	MOVQ out+24(FP), R8
	MOVQ n+32(FP), CX
	VMOVDQU nibblePop<>(SB), Y15
	MOVQ $0x0f0f0f0f0f0f0f0f, BX
	VMOVQ BX, X14
	VPBROADCASTQ X14, Y14          // Y14 = 0x0f in every byte
	VPXOR Y12, Y12, Y12            // Y12 = 0
	VPXOR Y13, Y13, Y13            // Y13: changed-cell count, per lane
	XORQ AX, AX                    // AX = i

loop:
	VMOVDQU (SI)(AX*8), Y0         // u = up[i]
	VMOVDQU (DI)(AX*8), Y1         // c = cur[i]
	VMOVDQU (DX)(AX*8), Y2         // d = down[i]

	// p0, p1 = u^d, u&d: the word's own column without c.
	// v0, v1 = colSum(u, c, d) = p0^c, p1 | p0&c.
	VPXOR Y2, Y0, Y3               // p0 = u ^ d
	VPAND Y2, Y0, Y4               // p1 = u & d
	VPXOR Y1, Y3, Y5               // v0 = p0 ^ c
	VPAND Y1, Y3, Y6
	VPOR  Y4, Y6, Y6               // v1 = p1 | p0&c

	// l0, l1 = colSum(up[i-1], cur[i-1], down[i-1])
	VMOVDQU -8(SI)(AX*8), Y7
	VMOVDQU -8(DX)(AX*8), Y8
	VPXOR Y8, Y7, Y9               // up[i-1] ^ down[i-1]
	VPAND Y8, Y7, Y7               // up[i-1] & down[i-1]
	VMOVDQU -8(DI)(AX*8), Y8
	VPAND Y8, Y9, Y10
	VPXOR Y8, Y9, Y9               // l0
	VPOR  Y10, Y7, Y7              // l1

	// w0, w1 = v0<<1 | l0>>63, v1<<1 | l1>>63
	VPSRLQ $63, Y9, Y9
	VPSLLQ $1, Y5, Y8
	VPOR   Y9, Y8, Y8              // w0
	VPSRLQ $63, Y7, Y7
	VPSLLQ $1, Y6, Y9
	VPOR   Y7, Y9, Y9              // w1

	// r0, r1 = colSum(up[i+1], cur[i+1], down[i+1])
	VMOVDQU 8(SI)(AX*8), Y0
	VMOVDQU 8(DX)(AX*8), Y2
	VPXOR Y2, Y0, Y7               // up[i+1] ^ down[i+1]
	VPAND Y2, Y0, Y0               // up[i+1] & down[i+1]
	VMOVDQU 8(DI)(AX*8), Y2
	VPAND Y2, Y7, Y10
	VPXOR Y2, Y7, Y7               // r0
	VPOR  Y10, Y0, Y0              // r1

	// e0, e1 = v0>>1 | r0<<63, v1>>1 | r1<<63
	VPSLLQ $63, Y7, Y7
	VPSRLQ $1, Y5, Y5
	VPOR   Y7, Y5, Y5              // e0
	VPSLLQ $63, Y0, Y0
	VPSRLQ $1, Y6, Y6
	VPOR   Y0, Y6, Y6              // e1

	// x0, k0 = fullAdd(w0, p0, e0)
	VPXOR Y3, Y8, Y0               // x = w0 ^ p0
	VPAND Y3, Y8, Y8               // w0 & p0
	VPAND Y5, Y0, Y2               // x & e0
	VPXOR Y5, Y0, Y0               // x0 = x ^ e0
	VPOR  Y2, Y8, Y8               // k0 = w0&p0 | x&e0

	// t1, k = fullAdd(w1, p1, e1)
	VPXOR Y4, Y9, Y2               // y = w1 ^ p1
	VPAND Y4, Y9, Y9               // w1 & p1
	VPAND Y6, Y2, Y7               // y & e1
	VPXOR Y6, Y2, Y2               // t1 = y ^ e1
	VPOR  Y7, Y9, Y9               // k = w1&p1 | y&e1

	// next = t &^ k & (x0 | c), t = t1 ^ k0
	VPXOR  Y8, Y2, Y2              // t
	VPANDN Y2, Y9, Y2              // t &^ k
	VPOR   Y1, Y0, Y0              // x0 | c
	VPAND  Y0, Y2, Y2              // next
	VMOVDQU Y2, (R8)(AX*8)         // out[i] = next

	// count += popcount(next ^ c): look up both nibbles of every byte,
	// then VPSADBW sums each lane's eight byte counts.
	VPXOR   Y1, Y2, Y2
	VPSRLQ  $4, Y2, Y3
	VPAND   Y14, Y2, Y2            // low nibbles
	VPAND   Y14, Y3, Y3            // high nibbles
	VPSHUFB Y2, Y15, Y2
	VPSHUFB Y3, Y15, Y3
	VPADDB  Y3, Y2, Y2
	VPSADBW Y12, Y2, Y2
	VPADDQ  Y2, Y13, Y13

	ADDQ $4, AX
	CMPQ AX, CX
	JLT  loop

	// Sum the four lanes of the count.
	VEXTRACTI128 $1, Y13, X0
	VPADDQ  X0, X13, X0
	VPSHUFD $0x4e, X0, X1
	VPADDQ  X1, X0, X0
	VMOVQ   X0, AX
	VZEROUPPER
	MOVQ AX, ret+40(FP)
	RET
