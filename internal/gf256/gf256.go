// Package gf256 implements arithmetic over the Galois field GF(2^8) used by
// the Reed–Solomon and LRC codecs.
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by most
// storage erasure codecs (including Intel ISA-L, which the paper benchmarks
// in Figure 11). Multiplication uses 256-entry log/exp tables; the hot
// slice kernels additionally use a per-multiplier 256-entry product table,
// which is the scalar analogue of the SIMD shuffle kernels in ISA-L.
package gf256

import "encoding/binary"

// Poly is the primitive polynomial generating the field, with the x^8 term
// removed (0x11d & 0xff plus the carry handling in genTables).
const Poly = 0x1d

var (
	expTable [512]byte // exp[i] = g^i, doubled to avoid a mod in Mul
	logTable [256]byte // log[x] = i such that g^i = x; log[0] is unused
	// mulTable[a] is the full product row a*b for all b. 64 KiB total;
	// rows are handed out by MulTable for the slice kernels.
	mulTable [256][256]byte
	// inverse[x] = x^-1; inverse[0] is 0 and must never be used.
	inverse [256]byte
)

func init() {
	genTables()
}

func genTables() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		expTable[i] = x
		logTable[x] = byte(i)
		// multiply x by the generator (2) in GF(2^8)
		carry := x&0x80 != 0
		x <<= 1
		if carry {
			x ^= Poly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for a := 1; a < 256; a++ {
		la := int(logTable[a])
		for b := 1; b < 256; b++ {
			mulTable[a][b] = expTable[la+int(logTable[b])]
		}
		inverse[a] = expTable[255-la]
	}
}

// Add returns a+b in GF(2^8). Addition is XOR.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a/b in GF(2^8). It panics if b is zero, mirroring the
// semantics of Go's built-in integer division.
func Div(a, b byte) byte {
	if b == 0 {
		//lint:allow nakedpanic division by zero mirrors built-in integer division semantics
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero,
// mirroring the semantics of Go's built-in integer division.
func Inv(a byte) byte {
	if a == 0 {
		//lint:allow nakedpanic inverse of zero mirrors built-in integer division semantics
		panic("gf256: inverse of zero")
	}
	return inverse[a]
}

// Exp returns g^n for the field generator g=2. n may be any integer;
// it is reduced mod 255 (the multiplicative group order), so negative
// exponents denote inverse powers: Exp(-n) == Inv(Exp(n)).
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTable[n]
}

// Log returns log_g(a). It panics if a is zero (zero is not in the
// multiplicative group), mirroring built-in integer division semantics.
func Log(a byte) int {
	if a == 0 {
		//lint:allow nakedpanic log of zero mirrors built-in integer division semantics
		panic("gf256: log of zero")
	}
	return int(logTable[a])
}

// MulTable returns the 256-entry product row for multiplier c, i.e.
// row[b] == Mul(c, b). The returned slice aliases an internal table and
// must not be modified.
func MulTable(c byte) *[256]byte { return &mulTable[c] }

// The slice kernels below are written in "slice-advance" form:
//
//	for len(src) >= N && len(dst) >= N { ... src, dst = src[N:], dst[N:] }
//
// rather than the indexed form `for i := 0; i+N <= len(src); i += N`.
// The compiler's prove pass eliminates every bounds check in the
// slice-advance form (constant indexes below N against a known minimum
// length), whereas the indexed form keeps a check per access; the
// hotbce analyzer fails on any check `-d=ssa/check_bce` reports in
// these loops. Word loads and stores go
// through encoding/binary's little-endian views, which compile to
// single moves on little-endian targets and stay correct elsewhere.

// MulSlice sets dst[i] = c * src[i] for all i. dst and src must have the
// same length; they may alias exactly (but not partially overlap).
//
//mlec:hot per-byte codec kernel
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		//lint:allow nakedpanic hot-kernel precondition; the bounds-check analogue for mismatched shard geometry
		panic("gf256: MulSlice length mismatch")
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	mt := &mulTable[c]
	// 16 bytes per iteration: byte loads feed the table row (always
	// in-bounds: a byte indexes a 256-entry array), products are
	// composed into two words and stored word-wide.
	for len(src) >= 16 && len(dst) >= 16 {
		v := uint64(mt[src[0]]) |
			uint64(mt[src[1]])<<8 |
			uint64(mt[src[2]])<<16 |
			uint64(mt[src[3]])<<24 |
			uint64(mt[src[4]])<<32 |
			uint64(mt[src[5]])<<40 |
			uint64(mt[src[6]])<<48 |
			uint64(mt[src[7]])<<56
		w := uint64(mt[src[8]]) |
			uint64(mt[src[9]])<<8 |
			uint64(mt[src[10]])<<16 |
			uint64(mt[src[11]])<<24 |
			uint64(mt[src[12]])<<32 |
			uint64(mt[src[13]])<<40 |
			uint64(mt[src[14]])<<48 |
			uint64(mt[src[15]])<<56
		binary.LittleEndian.PutUint64(dst, v)
		binary.LittleEndian.PutUint64(dst[8:], w)
		src, dst = src[16:], dst[16:]
	}
	for len(src) > 0 && len(dst) > 0 {
		dst[0] = mt[src[0]]
		src, dst = src[1:], dst[1:]
	}
}

// MulAddSlice sets dst[i] ^= c * src[i] for all i — the fundamental
// encode kernel (one matrix coefficient applied to one data shard).
//
//mlec:hot per-byte codec kernel
func MulAddSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		//lint:allow nakedpanic hot-kernel precondition; the bounds-check analogue for mismatched shard geometry
		panic("gf256: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		XorSlice(src, dst)
		return
	}
	mt := &mulTable[c]
	for len(src) >= 16 && len(dst) >= 16 {
		v := uint64(mt[src[0]]) |
			uint64(mt[src[1]])<<8 |
			uint64(mt[src[2]])<<16 |
			uint64(mt[src[3]])<<24 |
			uint64(mt[src[4]])<<32 |
			uint64(mt[src[5]])<<40 |
			uint64(mt[src[6]])<<48 |
			uint64(mt[src[7]])<<56
		w := uint64(mt[src[8]]) |
			uint64(mt[src[9]])<<8 |
			uint64(mt[src[10]])<<16 |
			uint64(mt[src[11]])<<24 |
			uint64(mt[src[12]])<<32 |
			uint64(mt[src[13]])<<40 |
			uint64(mt[src[14]])<<48 |
			uint64(mt[src[15]])<<56
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^v)
		binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(dst[8:])^w)
		src, dst = src[16:], dst[16:]
	}
	for len(src) > 0 && len(dst) > 0 {
		dst[0] ^= mt[src[0]]
		src, dst = src[1:], dst[1:]
	}
}

// XorSlice sets dst[i] ^= src[i] for all i, using word-wide XOR.
//
//mlec:hot per-byte codec kernel
func XorSlice(src, dst []byte) {
	if len(src) != len(dst) {
		//lint:allow nakedpanic hot-kernel precondition; the bounds-check analogue for mismatched shard geometry
		panic("gf256: XorSlice length mismatch")
	}
	// 32 bytes per iteration, then one word at a time, then bytes.
	for len(src) >= 32 && len(dst) >= 32 {
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^binary.LittleEndian.Uint64(src))
		binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(dst[8:])^binary.LittleEndian.Uint64(src[8:]))
		binary.LittleEndian.PutUint64(dst[16:], binary.LittleEndian.Uint64(dst[16:])^binary.LittleEndian.Uint64(src[16:]))
		binary.LittleEndian.PutUint64(dst[24:], binary.LittleEndian.Uint64(dst[24:])^binary.LittleEndian.Uint64(src[24:]))
		src, dst = src[32:], dst[32:]
	}
	for len(src) >= 8 && len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^binary.LittleEndian.Uint64(src))
		src, dst = src[8:], dst[8:]
	}
	for len(src) > 0 && len(dst) > 0 {
		dst[0] ^= src[0]
		src, dst = src[1:], dst[1:]
	}
}

// DualTable is a product table for a pair of multipliers (c1, c2):
// entry s holds Mul(c1,s) in bits 0–7 and Mul(c2,s) in bits 32–39. One
// byte lookup therefore yields both parity contributions, and because
// per-byte products are composed into a word by shifting 8 bits per
// source byte, the c1 products accumulate in the low half of the word
// and the c2 products in the high half without colliding. The table is
// 2 KiB — it stays L1-resident across a whole shard pass, unlike wider
// (two-bytes-per-lookup) tables whose 128 KiB footprint thrashes the
// cache as the encode loop cycles through k·p coefficients.
type DualTable [256]uint64

// NewDualTable builds the interleaved product table for (c1, c2).
func NewDualTable(c1, c2 byte) *DualTable {
	t := new(DualTable)
	t1, t2 := &mulTable[c1], &mulTable[c2]
	for s := 0; s < 256; s++ {
		t[s] = uint64(t1[s]) | uint64(t2[s])<<32
	}
	return t
}

// MulAddDual sets d1[i] ^= c1*src[i] and d2[i] ^= c2*src[i] where t is
// NewDualTable(c1, c2). src, d1, d2 must have equal lengths; d1 and d2
// must not overlap src or each other. One pass over src feeds two
// parity rows, halving table lookups and loop overhead per parity byte
// relative to two MulAddSlice passes.
//
//mlec:hot dual-parity codec kernel
func MulAddDual(t *DualTable, src, d1, d2 []byte) {
	if len(src) != len(d1) || len(src) != len(d2) {
		//lint:allow nakedpanic hot-kernel precondition; the bounds-check analogue for mismatched shard geometry
		panic("gf256: MulAddDual length mismatch")
	}
	for len(src) >= 8 && len(d1) >= 8 && len(d2) >= 8 {
		a := t[src[0]] | t[src[1]]<<8 | t[src[2]]<<16 | t[src[3]]<<24
		b := t[src[4]] | t[src[5]]<<8 | t[src[6]]<<16 | t[src[7]]<<24
		// a, b each hold 4 c1-products (low 32 bits) and 4
		// c2-products (high 32 bits); recombine into one word per
		// destination.
		v := uint64(uint32(a)) | uint64(uint32(b))<<32
		w := a>>32 | b&0xffffffff00000000
		binary.LittleEndian.PutUint64(d1, binary.LittleEndian.Uint64(d1)^v)
		binary.LittleEndian.PutUint64(d2, binary.LittleEndian.Uint64(d2)^w)
		src, d1, d2 = src[8:], d1[8:], d2[8:]
	}
	for len(src) > 0 && len(d1) > 0 && len(d2) > 0 {
		e := t[src[0]]
		d1[0] ^= byte(e)
		d2[0] ^= byte(e >> 32)
		src, d1, d2 = src[1:], d1[1:], d2[1:]
	}
}

// MulDual sets d1[i] = c1*src[i] and d2[i] = c2*src[i] — the
// first-source variant of MulAddDual that overwrites instead of
// accumulating, saving the destination reads (and a separate zeroing
// pass) on the first column of an encode.
//
//mlec:hot dual-parity codec kernel
func MulDual(t *DualTable, src, d1, d2 []byte) {
	if len(src) != len(d1) || len(src) != len(d2) {
		//lint:allow nakedpanic hot-kernel precondition; the bounds-check analogue for mismatched shard geometry
		panic("gf256: MulDual length mismatch")
	}
	for len(src) >= 8 && len(d1) >= 8 && len(d2) >= 8 {
		a := t[src[0]] | t[src[1]]<<8 | t[src[2]]<<16 | t[src[3]]<<24
		b := t[src[4]] | t[src[5]]<<8 | t[src[6]]<<16 | t[src[7]]<<24
		binary.LittleEndian.PutUint64(d1, uint64(uint32(a))|uint64(uint32(b))<<32)
		binary.LittleEndian.PutUint64(d2, a>>32|b&0xffffffff00000000)
		src, d1, d2 = src[8:], d1[8:], d2[8:]
	}
	for len(src) > 0 && len(d1) > 0 && len(d2) > 0 {
		e := t[src[0]]
		d1[0] = byte(e)
		d2[0] = byte(e >> 32)
		src, d1, d2 = src[1:], d1[1:], d2[1:]
	}
}
