// Package rs implements a systematic (k+p) Reed–Solomon erasure codec over
// GF(2^8), the "SLEC" building block of the paper. It is the from-scratch
// substitute for Intel ISA-L used in the paper's Figure 11 encoding
// throughput measurements, and supplies both levels of MLEC as well as the
// global-parity stage of LRC.
//
// The encoding matrix is the extended-Vandermonde construction: build a
// (k+p)×k Vandermonde matrix over distinct evaluation points, then
// row-reduce so the top k×k block is the identity. Any k of the k+p shards
// then suffice to reconstruct all shards (MDS property), which the tests
// verify exhaustively for small codes and probabilistically for large ones.
package rs

import (
	"errors"
	"fmt"

	"mlec/internal/gf256"
)

// Codec is a systematic Reed–Solomon encoder/decoder for k data shards and
// p parity shards. A Codec is immutable after construction and safe for
// concurrent use.
type Codec struct {
	k, p int
	// enc is the (k+p)×k encoding matrix; its top k rows are the
	// identity, its bottom p rows generate the parities.
	enc *gf256.Matrix
	// dual[j][di] is the interleaved product table for data column di
	// of the parity pair (2j, 2j+1): one table lookup per source byte
	// feeds both parities (see gf256.DualTable). Built once at New —
	// k·⌊p/2⌋ tables of 2 KiB each — so Encode stays allocation-free.
	dual [][]*gf256.DualTable
}

// Limits of the GF(2^8) construction: k+p shards must have distinct
// evaluation points among the 256 field elements.
const MaxShards = 256

var (
	// ErrTooFewShards is returned by Reconstruct when fewer than k
	// shards are present.
	ErrTooFewShards = errors.New("rs: fewer than k shards available")
	// ErrShardSize is returned when shard lengths are inconsistent.
	ErrShardSize = errors.New("rs: inconsistent shard sizes")
)

// New returns a codec for k data and p parity shards.
func New(k, p int) (*Codec, error) {
	if k <= 0 || p < 0 {
		return nil, fmt.Errorf("rs: invalid parameters k=%d p=%d", k, p)
	}
	if k+p > MaxShards {
		return nil, fmt.Errorf("rs: k+p = %d exceeds %d", k+p, MaxShards)
	}
	// Extended Vandermonde, then normalize the top block to identity so
	// the code is systematic.
	v := gf256.Vandermonde(k+p, k)
	top := v.SubMatrix(0, k, 0, k)
	topInv, err := top.Invert()
	if err != nil {
		// Cannot happen: distinct evaluation points guarantee
		// non-singularity.
		return nil, fmt.Errorf("rs: internal construction failure: %w", err)
	}
	c := &Codec{k: k, p: p, enc: v.Mul(topInv)}
	c.dual = make([][]*gf256.DualTable, p/2)
	for j := range c.dual {
		r1 := c.enc.Row(k + 2*j)
		r2 := c.enc.Row(k + 2*j + 1)
		tabs := make([]*gf256.DualTable, k)
		for di := range tabs {
			tabs[di] = gf256.NewDualTable(r1[di], r2[di])
		}
		c.dual[j] = tabs
	}
	return c, nil
}

// MustNew is New but panics on error; for static configurations.
func MustNew(k, p int) *Codec {
	c, err := New(k, p)
	if err != nil {
		panic(err)
	}
	return c
}

// DataShards returns k.
func (c *Codec) DataShards() int { return c.k }

// ParityShards returns p.
func (c *Codec) ParityShards() int { return c.p }

// TotalShards returns k+p.
func (c *Codec) TotalShards() int { return c.k + c.p }

// ParityRow returns the encoding-matrix row for parity shard i (0 ≤ i < p):
// parity_i = Σ_j row[j]·data_j. The slice aliases codec state; do not
// modify.
func (c *Codec) ParityRow(i int) ([]byte, error) {
	if i < 0 || i >= c.p {
		return nil, fmt.Errorf("rs: parity row %d out of range [0,%d)", i, c.p)
	}
	return c.enc.Row(c.k + i), nil
}

func (c *Codec) checkShards(shards [][]byte, wantAll bool) (int, error) {
	if len(shards) != c.k+c.p {
		return 0, fmt.Errorf("rs: got %d shards, want %d", len(shards), c.k+c.p)
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			if wantAll {
				return 0, fmt.Errorf("rs: shard %d is nil", i)
			}
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return 0, ErrShardSize
		}
	}
	if size <= 0 {
		return 0, ErrTooFewShards
	}
	return size, nil
}

// Encode computes the p parity shards from the k data shards in place:
// shards[0:k] are inputs, shards[k:k+p] are outputs (must be allocated to
// the same length as the data shards).
//
// The guards inside the loops below never fire — checkShards and the
// construction of dual already establish the geometry — but they state
// the length relations locally, which is what lets the compiler's
// prove pass eliminate every bounds check on the indexing that follows
// (hotbce fails on any it keeps).
//
//mlec:hot steady-state encode path; zero allocations per call
func (c *Codec) Encode(shards [][]byte) error {
	if _, err := c.checkShards(shards, true); err != nil {
		return err
	}
	if c.k > len(shards) {
		return ErrShardSize
	}
	data := shards[:c.k]
	rem := shards[c.k:]
	// Parity pairs: one pass over each data shard updates two
	// parities through the interleaved table.
	for _, tabs := range c.dual {
		if len(rem) < 2 || len(tabs) != len(data) {
			return ErrShardSize
		}
		p1, p2 := rem[0], rem[1]
		for di, t := range tabs {
			if di == 0 {
				gf256.MulDual(t, data[di], p1, p2)
			} else {
				gf256.MulAddDual(t, data[di], p1, p2)
			}
		}
		rem = rem[2:]
	}
	// Odd parity count: the last parity runs on the single-row kernels.
	if len(rem) > 0 {
		out := rem[0]
		row := c.enc.Row(c.k + c.p - 1)
		if len(row) != len(data) {
			return ErrShardSize
		}
		for di, coef := range row {
			if di == 0 {
				gf256.MulSlice(coef, data[di], out)
			} else {
				gf256.MulAddSlice(coef, data[di], out)
			}
		}
	}
	return nil
}

// Verify reports whether the parity shards are consistent with the data
// shards.
func (c *Codec) Verify(shards [][]byte) (bool, error) {
	size, err := c.checkShards(shards, true)
	if err != nil {
		return false, err
	}
	buf := make([]byte, size)
	for pi := 0; pi < c.p; pi++ {
		row := c.enc.Row(c.k + pi)
		for i := range buf {
			buf[i] = 0
		}
		for di := 0; di < c.k; di++ {
			gf256.MulAddSlice(row[di], shards[di], buf)
		}
		for i := range buf {
			if buf[i] != shards[c.k+pi][i] {
				return false, nil
			}
		}
	}
	return true, nil
}

// Reconstruct rebuilds all missing shards (entries that are nil) in place.
// At least k shards must be present. Present shards are never modified.
func (c *Codec) Reconstruct(shards [][]byte) error {
	return c.reconstruct(shards, false)
}

// ReconstructData rebuilds only the missing data shards, leaving missing
// parity shards nil. This is the minimum work needed to serve a read.
func (c *Codec) ReconstructData(shards [][]byte) error {
	return c.reconstruct(shards, true)
}

func (c *Codec) reconstruct(shards [][]byte, dataOnly bool) error {
	size, err := c.checkShards(shards, false)
	if err != nil {
		return err
	}
	// Gather k present shards and their encoding rows.
	present := make([]int, 0, c.k)
	for i := 0; i < c.k+c.p && len(present) < c.k; i++ {
		if shards[i] != nil {
			present = append(present, i)
		}
	}
	if len(present) < c.k {
		return ErrTooFewShards
	}
	// Fast path: all data shards present → only recompute parities.
	allData := true
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			allData = false
			break
		}
	}
	if c.k > len(shards) {
		return ErrTooFewShards
	}
	// data aliases the shards array, so rebuilt data shards stored back
	// into shards are visible through it.
	data := shards[:c.k]
	if allData {
		if dataOnly {
			return nil
		}
		// Recompute just the missing parities.
		for pi := 0; pi < c.p; pi++ {
			if shards[c.k+pi] != nil {
				continue
			}
			out := make([]byte, size)
			row := c.enc.Row(c.k + pi)
			if len(row) != len(data) {
				return ErrShardSize
			}
			//mlec:hot parity rebuild inner loop
			for di, coef := range row {
				gf256.MulAddSlice(coef, data[di], out)
			}
			shards[c.k+pi] = out
		}
		return nil
	}

	// General path: solve for the data shards from any k present shards.
	sub := gf256.NewMatrix(c.k, c.k)
	for r, idx := range present {
		copy(sub.Row(r), c.enc.Row(idx))
	}
	dec, err := sub.Invert()
	if err != nil {
		// Cannot happen for an MDS construction.
		return fmt.Errorf("rs: decode matrix singular: %w", err)
	}
	// Resolve the present shard indexes to slices once, outside the hot
	// loops, so the rebuild loops below index only length-related
	// slices. Present shards are never modified, so the gathered views
	// stay valid while shards is filled in.
	srcs := make([][]byte, len(present))
	for r, idx := range present {
		srcs[r] = shards[idx]
	}
	// data_j = Σ_r dec[j][r] · shard[present[r]]
	for dj := 0; dj < c.k; dj++ {
		if shards[dj] != nil {
			continue
		}
		out := make([]byte, size)
		row := dec.Row(dj)
		if len(row) != len(srcs) {
			return ErrShardSize
		}
		//mlec:hot data shard rebuild inner loop
		for r, src := range srcs {
			gf256.MulAddSlice(row[r], src, out)
		}
		shards[dj] = out
	}
	if dataOnly {
		return nil
	}
	// With all data restored, recompute missing parities.
	for pi := 0; pi < c.p; pi++ {
		if shards[c.k+pi] != nil {
			continue
		}
		out := make([]byte, size)
		row := c.enc.Row(c.k + pi)
		if len(row) != len(data) {
			return ErrShardSize
		}
		//mlec:hot parity rebuild inner loop
		for di, coef := range row {
			gf256.MulAddSlice(coef, data[di], out)
		}
		shards[c.k+pi] = out
	}
	return nil
}

// Split partitions data into k equally sized shards (zero-padding the
// tail) and allocates p empty parity shards, ready for Encode.
func (c *Codec) Split(data []byte) ([][]byte, int) {
	shardSize := (len(data) + c.k - 1) / c.k
	if shardSize == 0 {
		shardSize = 1
	}
	shards := make([][]byte, c.k+c.p)
	for i := 0; i < c.k; i++ {
		shards[i] = make([]byte, shardSize)
		lo := i * shardSize
		if lo < len(data) {
			hi := lo + shardSize
			if hi > len(data) {
				hi = len(data)
			}
			copy(shards[i], data[lo:hi])
		}
	}
	for i := c.k; i < c.k+c.p; i++ {
		shards[i] = make([]byte, shardSize)
	}
	return shards, len(data)
}

// Join is the inverse of Split: it concatenates the data shards and trims
// to the original length.
func (c *Codec) Join(shards [][]byte, origLen int) ([]byte, error) {
	if len(shards) < c.k {
		return nil, ErrTooFewShards
	}
	out := make([]byte, 0, origLen)
	for i := 0; i < c.k && len(out) < origLen; i++ {
		if shards[i] == nil {
			return nil, fmt.Errorf("rs: data shard %d missing; Reconstruct first", i)
		}
		need := origLen - len(out)
		if need > len(shards[i]) {
			need = len(shards[i])
		}
		out = append(out, shards[i][:need]...)
	}
	return out, nil
}
