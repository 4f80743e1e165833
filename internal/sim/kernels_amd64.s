//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA kernels for the batched lognormal sampler's three
// transcendental passes (lognormal_batch.go). Each processes four
// float64 lanes per step and is a lane-wise transliteration of the scalar
// code it replaces, with the same IEEE operations in the same order, so
// every lane's bits equal the scalar result (DESIGN.md §9.6). A kernel
// stops at the first 4-lane block holding a lane outside its guard range
// and returns the number of elements it finished; the Go wrapper sends
// that block and the sub-4 tail down the scalar path.

// BCAST stores v four times: one 256-bit broadcast constant per slot.
#define BCAST(off, v) DATA kconst<>+(off)(SB)/8, v; DATA kconst<>+(off+8)(SB)/8, v; DATA kconst<>+(off+16)(SB)/8, v; DATA kconst<>+(off+24)(SB)/8, v

// Each constant's name, then its 32-byte slot. Non-round values are bit
// patterns: those of math/exp_amd64.s, math/log_amd64.s and cos2pi.
#define ABS       kconst<>+0(SB) // sign-bit clear mask
BCAST(0, $0x7FFFFFFFFFFFFFFF)
#define EXPMAX    kconst<>+32(SB) // exp guard: |x| <= 708
BCAST(32, $708.0)
#define LOG2E     kconst<>+64(SB) // 1/ln2
BCAST(64, $0x3FF71547652B82FE)
#define LN2U      kconst<>+96(SB) // upper half of ln2
BCAST(96, $0x3FE62E42FEFA3000)
#define LN2L      kconst<>+128(SB) // lower half of ln2
BCAST(128, $0x3D53DE6AF278ECE6)
#define SIXTEENTH kconst<>+160(SB)
BCAST(160, $0.0625)
#define E64       kconst<>+192(SB) // 1/8!
BCAST(192, $0x3EFA01A01A01A01A)
#define E56       kconst<>+224(SB) // 1/7!
BCAST(224, $0x3F2A01A01A01A01A)
#define E48       kconst<>+256(SB) // 1/6!
BCAST(256, $0x3F56C16C16C16C17)
#define E40       kconst<>+288(SB) // 1/5!
BCAST(288, $0x3F81111111111111)
#define E32       kconst<>+320(SB) // 1/4!
BCAST(320, $0x3FA5555555555555)
#define E24       kconst<>+352(SB) // 1/3!
BCAST(352, $0x3FC5555555555555)
#define HALF      kconst<>+384(SB)
BCAST(384, $0.5)
#define ONE       kconst<>+416(SB)
BCAST(416, $1.0)
#define TWO       kconst<>+448(SB)
BCAST(448, $2.0)
#define MINUS2    kconst<>+480(SB)
BCAST(480, $-2.0)
#define EXPBIAS   kconst<>+512(SB) // int64 exponent bias
BCAST(512, $0x3FF)
#define MINNORM   kconst<>+544(SB) // smallest positive normal
BCAST(544, $0x0010000000000000)
#define POSINF    kconst<>+576(SB) // +Inf
BCAST(576, $0x7FF0000000000000)
#define MANT      kconst<>+608(SB) // mantissa mask
BCAST(608, $0x000FFFFFFFFFFFFF)
#define MAGIC     kconst<>+640(SB) // 2^52
BCAST(640, $0x4330000000000000)
#define MAGIC1022 kconst<>+672(SB) // 2^52 + 0x3FE
BCAST(672, $0x43300000000003FE)
#define HSQRT2    kconst<>+704(SB) // sqrt(2)/2
BCAST(704, $0x3FE6A09E667F3BCD)
#define LN2HI     kconst<>+736(SB)
BCAST(736, $0x3FE62E42FEE00000)
#define LN2LO     kconst<>+768(SB)
BCAST(768, $0x3DEA39EF35793C76)
#define L1        kconst<>+800(SB)
BCAST(800, $0x3FE5555555555593)
#define L2        kconst<>+832(SB)
BCAST(832, $0x3FD999999997FA04)
#define L3        kconst<>+864(SB)
BCAST(864, $0x3FD2492494229359)
#define L4        kconst<>+896(SB)
BCAST(896, $0x3FCC71C51D8E78AF)
#define L5        kconst<>+928(SB)
BCAST(928, $0x3FC7466496CB03DE)
#define L6        kconst<>+960(SB)
BCAST(960, $0x3FC39A09D078C69F)
#define L7        kconst<>+992(SB)
BCAST(992, $0x3FC2F112DF3E5244)
#define TWOPI     kconst<>+1024(SB) // float64(2*math.Pi)
BCAST(1024, $0x401921FB54442D18)
#define FOURBYPI  kconst<>+1056(SB) // float64(4/math.Pi)
BCAST(1056, $0x3FF45F306DC9C883)
#define REDUCEMAX kconst<>+1088(SB) // 2^29, cos2pi reduce threshold
BCAST(1088, $536870912.0)
#define PI4A      kconst<>+1120(SB)
BCAST(1120, $0x3FE921FB40000000)
#define PI4B      kconst<>+1152(SB)
BCAST(1152, $0x3E64442D00000000)
#define PI4C      kconst<>+1184(SB)
BCAST(1184, $0x3CE8469898CC5170)
#define SIN0      kconst<>+1216(SB)
BCAST(1216, $0x3DE5D8FD1FD19CCD)
#define SIN1      kconst<>+1248(SB)
BCAST(1248, $0xBE5AE5E5A9291F5D)
#define SIN2      kconst<>+1280(SB)
BCAST(1280, $0x3EC71DE3567D48A1)
#define SIN3      kconst<>+1312(SB)
BCAST(1312, $0xBF2A01A019BFDF03)
#define SIN4      kconst<>+1344(SB)
BCAST(1344, $0x3F8111111110F7D0)
#define SIN5      kconst<>+1376(SB)
BCAST(1376, $0xBFC5555555555548)
#define COS0      kconst<>+1408(SB)
BCAST(1408, $0xBDA8FA49A0861A9B)
#define COS1      kconst<>+1440(SB)
BCAST(1440, $0x3E21EE9D7B4E3F05)
#define COS2      kconst<>+1472(SB)
BCAST(1472, $0xBE927E4F7EAC4BC6)
#define COS3      kconst<>+1504(SB)
BCAST(1504, $0x3EFA01A019C844F5)
#define COS4      kconst<>+1536(SB)
BCAST(1536, $0xBF56C16C16C14F91)
#define COS5      kconst<>+1568(SB)
BCAST(1568, $0x3FA555555555554B)
#define ONE32     kconst<>+1600(SB) // int32 lanes of 1
BCAST(1600, $0x0000000100000001)
#define THREE32   kconst<>+1632(SB) // int32 lanes of 3
BCAST(1632, $0x0000000300000003)
#define SEVEN32   kconst<>+1664(SB) // int32 lanes of 7
BCAST(1664, $0x0000000700000007)
GLOBL kconst<>(SB), RODATA|NOPTR, $1696

// func radiusAVX2(x []float64) int
//
// x[i] = sqrt(-2 * log(x[i])). The log is math/log_amd64.s lane by lane;
// the guard admits positive, normal, finite lanes (the only ones whose
// stdlib path is the plain reduction below). AVX2 has no int64->float64
// conversion, so the exponent takes the magic-number route: OR-ing the
// biased exponent e (11 bits) into the mantissa of 2^52 gives the double
// 2^52+e exactly, and subtracting 2^52+0x3FE leaves e-0x3FE exactly, the
// value the stdlib's CVTSL2SD produces.
TEXT ·radiusAVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	XORQ AX, AX

radiusLoop:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  radiusDone
	VMOVUPD (SI)(AX*8), Y0

	// guard: 2^-1022 <= u < +Inf in every lane (ordered: NaN fails)
	VCMPPD    $0x1D, MINNORM, Y0, Y1
	VCMPPD    $0x11, POSINF, Y0, Y2
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, DX
	CMPQ      DX, $15
	JNE       radiusDone

	// f1, ki := math.Frexp(x); k := float64(ki)
	VANDPD MANT, Y0, Y2
	VORPD  HALF, Y2, Y2          // Y2 = f1
	VPSRLQ $52, Y0, Y1
	VPOR   MAGIC, Y1, Y1
	VSUBPD MAGIC1022, Y1, Y1     // Y1 = k

	// if f1 <= Sqrt2/2 { k -= 1; f1 *= 2 } (the stdlib's CMPSD NLT)
	VCMPPD $0x12, HSQRT2, Y2, Y3
	VANDPD ONE, Y3, Y3           // Y3 = 0 or 1
	VSUBPD Y3, Y1, Y1
	VADDPD ONE, Y3, Y3           // Y3 = 1 or 2
	VMULPD Y3, Y2, Y2

	// f := f1 - 1
	VSUBPD ONE, Y2, Y2           // Y2 = f

	// s := f / (2 + f)
	VADDPD TWO, Y2, Y3
	VDIVPD Y3, Y2, Y3            // Y3 = s

	// s2 := s * s; s4 := s2 * s2
	VMULPD Y3, Y3, Y4            // Y4 = s2
	VMULPD Y4, Y4, Y5            // Y5 = s4

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD L7, Y5, Y6
	VADDPD L5, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD L3, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD L1, Y6, Y6
	VMULPD Y6, Y4, Y4            // Y4 = t1

	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD L6, Y5, Y6
	VADDPD L4, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD L2, Y6, Y6
	VMULPD Y6, Y5, Y5            // Y5 = t2

	// R := t1 + t2
	VADDPD Y5, Y4, Y4            // Y4 = R

	// hfsq := 0.5 * f * f
	VMULPD HALF, Y2, Y7
	VMULPD Y2, Y7, Y7            // Y7 = hfsq

	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y7, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD LN2LO, Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y7, Y7
	VSUBPD Y2, Y7, Y7
	VMULPD LN2HI, Y1, Y1
	VSUBPD Y7, Y1, Y1            // Y1 = log(u)

	// sqrt(-2 * log(u))
	VMULPD  MINUS2, Y1, Y1
	VSQRTPD Y1, Y1
	VMOVUPD Y1, (SI)(AX*8)
	ADDQ    $4, AX
	JMP     radiusLoop

radiusDone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func angleAVX2(z, u []float64) int
//
// z[i] *= cos2pi(u[i]) over the first len(z) elements (len(u) >= len(z)).
// cos2pi's integer selection steps become int32 lane arithmetic and its
// select/sign steps a blend and an XOR; the guard is cos2pi's own
// 0 <= 2*Pi*u < 2^29.
TEXT ·angleAVX2(SB), NOSPLIT, $0-56
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), CX
	MOVQ u_base+24(FP), SI
	XORQ AX, AX
	VXORPD Y15, Y15, Y15         // Y15 = 0

angleLoop:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  angleDone
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  TWOPI, Y0, Y0        // Y0 = x = 2*Pi*u

	// guard: 0 <= x < 2^29 in every lane (ordered: NaN fails)
	VCMPPD    $0x1D, Y15, Y0, Y1
	VCMPPD    $0x11, REDUCEMAX, Y0, Y2
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, DX
	CMPQ      DX, $15
	JNE       angleDone

	// j := uint64(x * (4/Pi)); odd := j & 1; j += odd; y := float64(j)
	VMULPD      FOURBYPI, Y0, Y1
	VCVTTPD2DQY Y1, X1           // X1 = j (int32 lanes)
	VPAND       ONE32, X1, X2
	VPADDD      X2, X1, X1
	VCVTDQ2PD   X1, Y2           // Y2 = y
	VPAND       SEVEN32, X1, X1  // j &= 7

	// z := ((x - y*PI4A) - y*PI4B) - y*PI4C
	VMULPD PI4A, Y2, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD PI4B, Y2, Y3
	VSUBPD Y3, Y0, Y0
	VMULPD PI4C, Y2, Y3
	VSUBPD Y3, Y0, Y0            // Y0 = z

	// sign := ((j>>2) ^ (j>>1)) & 1, widened to bit 63
	VPSRLD    $2, X1, X3
	VPSRLD    $1, X1, X4
	VPXOR     X4, X3, X3
	VPAND     ONE32, X3, X3
	VPMOVZXDQ X3, Y3
	VPSLLQ    $63, Y3, Y3        // Y3 = sign bit

	// sel := (((j&3)+1)>>1) & 1, widened to bit 63 (the blend mask)
	VPAND     THREE32, X1, X4
	VPADDD    ONE32, X4, X4
	VPSRLD    $1, X4, X4
	VPAND     ONE32, X4, X4
	VPMOVZXDQ X4, Y4
	VPSLLQ    $63, Y4, Y4        // Y4 = select-sine mask

	// zz := z * z
	VMULPD Y0, Y0, Y5

	// ysin := z + z*zz*((((((SIN0*zz)+SIN1)*zz+SIN2)*zz+SIN3)*zz+SIN4)*zz+SIN5)
	VMULPD SIN0, Y5, Y6
	VADDPD SIN1, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD SIN2, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD SIN3, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD SIN4, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD SIN5, Y6, Y6
	VMULPD Y5, Y0, Y7
	VMULPD Y6, Y7, Y7
	VADDPD Y7, Y0, Y7            // Y7 = ysin

	// ycos := 1.0 - 0.5*zz + zz*zz*((((((COS0*zz)+COS1)*zz+COS2)*zz+COS3)*zz+COS4)*zz+COS5)
	VMULPD COS0, Y5, Y6
	VADDPD COS1, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD COS2, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD COS3, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD COS4, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD COS5, Y6, Y6
	VMULPD Y5, Y5, Y8
	VMULPD Y6, Y8, Y8
	VMULPD HALF, Y5, Y9
	VMOVUPD ONE, Y10
	VSUBPD Y9, Y10, Y9
	VADDPD Y8, Y9, Y9            // Y9 = ycos

	// cos := sel ? ysin : ycos, sign applied; z[i] *= cos
	VBLENDVPD Y4, Y7, Y9, Y9
	VXORPD    Y3, Y9, Y9
	VMOVUPD   (DI)(AX*8), Y0
	VMULPD    Y9, Y0, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       angleLoop

angleDone:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func expAVX2(x []float64) int
//
// x[i] = exp(x[i]) through the FMA path of math/exp_amd64.s lane by lane.
// The guard |x| <= 708 keeps every lane off the stdlib's overflow,
// denormal and non-finite branches: the exponent k stays within
// [-1021, 1021].
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	XORQ AX, AX

expLoop:
	LEAQ 4(AX), DX
	CMPQ DX, CX
	JGT  expDone
	VMOVUPD (SI)(AX*8), Y0

	// guard: |x| <= 708 in every lane (ordered: NaN fails)
	VANDPD    ABS, Y0, Y1
	VCMPPD    $0x12, EXPMAX, Y1, Y1
	VMOVMSKPD Y1, DX
	CMPQ      DX, $15
	JNE       expDone

	// k := round(x * LOG2E) (CVTSD2SL: the MXCSR rounding mode)
	VMULPD     LOG2E, Y0, Y1
	VCVTPD2DQY Y1, X2            // X2 = k (int32 lanes)
	VCVTDQ2PD  X2, Y1            // Y1 = float64(k)

	// x -= k*LN2U; x -= k*LN2L (fused); x *= 1/16
	VFNMADD231PD LN2U, Y1, Y0
	VFNMADD231PD LN2L, Y1, Y0
	VMULPD       SIXTEENTH, Y0, Y0

	// Taylor series
	VMOVUPD     E64, Y1
	VFMADD213PD E56, Y0, Y1
	VFMADD213PD E48, Y0, Y1
	VFMADD213PD E40, Y0, Y1
	VFMADD213PD E32, Y0, Y1
	VFMADD213PD E24, Y0, Y1
	VFMADD213PD HALF, Y0, Y1
	VFMADD213PD ONE, Y0, Y1
	VMULPD      Y1, Y0, Y0

	// undo the 1/16 reduction: e^2a-1 = (e^a-1)*((e^a-1)+2), four times, then +1
	VADDPD      TWO, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      TWO, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      TWO, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      TWO, Y0, Y1
	VFMADD213PD ONE, Y1, Y0

	// return fr * 2**k
	VPMOVSXDQ X2, Y3
	VPADDQ    EXPBIAS, Y3, Y3
	VPSLLQ    $52, Y3, Y3
	VMULPD    Y3, Y0, Y0
	VMOVUPD   Y0, (SI)(AX*8)
	ADDQ      $4, AX
	JMP       expLoop

expDone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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
