#include "textflag.h"

// The vector kernels run the portable loops of matmul.go four elements per
// YMM register: one lane is one element of dst, and each lane performs that
// element's multiplications and additions in the portable loop's order, with
// VMULPD then VADDPD (no FMA, no horizontal sum). Every lane therefore rounds
// exactly as the scalar loop does. Where both operands of an addition are NaN,
// x86 returns the first source operand's payload, so each addition also keeps
// the first source the compiled portable loop uses: the product at the first
// and the last addition of axpy4Go, the running sum at the two between, and
// the product in axpy1Go. TestAxpyKernelsMatchPortable pins all of it.
//
// Both kernels take n as a positive multiple of four, run blocks of eight
// elements (two independent registers) and then at most one block of four.

// AXPY1 adds src·a (a broadcast in Y0) into the four elements at byte offset
// off+AX of dst (DI), reading src at SI.
#define AXPY1(off, acc) \
	VMOVUPD off(SI)(AX*1), acc; \
	VMULPD  Y0, acc, acc; \
	VADDPD  off(DI)(AX*1), acc, acc; \
	VMOVUPD acc, off(DI)(AX*1)

// AXPY4 adds s0·a0, s1·a1, s2·a2 and s3·a3 (sources R8-R11, coefficients
// broadcast in Y0-Y3) into the four elements at byte offset off+AX of dst.
#define AXPY4(off, acc, prod) \
	VMOVUPD off(R8)(AX*1), acc; \
	VMULPD  Y0, acc, acc; \
	VADDPD  off(DI)(AX*1), acc, acc; \
	VMOVUPD off(R9)(AX*1), prod; \
	VMULPD  Y1, prod, prod; \
	VADDPD  prod, acc, acc; \
	VMOVUPD off(R10)(AX*1), prod; \
	VMULPD  Y2, prod, prod; \
	VADDPD  prod, acc, acc; \
	VMOVUPD off(R11)(AX*1), prod; \
	VMULPD  Y3, prod, prod; \
	VADDPD  acc, prod, acc; \
	VMOVUPD acc, off(DI)(AX*1)

// func axpy1AVX2(dst, src *float64, n int, a float64)
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD a+24(FP), Y0
	SHLQ         $3, CX
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-64, BX
	JZ           axpy1four

axpy1eight:
	AXPY1(0, Y4)
	AXPY1(32, Y5)
	ADDQ $64, AX
	CMPQ AX, BX
	JB   axpy1eight

axpy1four:
	CMPQ AX, CX
	JAE  axpy1done
	AXPY1(0, Y4)

axpy1done:
	VZEROUPPER
	RET

// func axpy4AVX2(dst, s0, s1, s2, s3 *float64, n int, a0, a1, a2, a3 float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-80
	MOVQ         dst+0(FP), DI
	MOVQ         s0+8(FP), R8
	MOVQ         s1+16(FP), R9
	MOVQ         s2+24(FP), R10
	MOVQ         s3+32(FP), R11
	MOVQ         n+40(FP), CX
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3
	SHLQ         $3, CX
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-64, BX
	JZ           axpy4four

axpy4eight:
	AXPY4(0, Y4, Y5)
	AXPY4(32, Y6, Y7)
	ADDQ $64, AX
	CMPQ AX, BX
	JB   axpy4eight

axpy4four:
	CMPQ AX, CX
	JAE  axpy4done
	AXPY4(0, Y4, Y5)

axpy4done:
	VZEROUPPER
	RET

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
