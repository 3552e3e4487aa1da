// Package hotinline exercises the hotinline analyzer: per-iteration
// calls in //mlec:hot loops to small callees whose shape defeats the
// inliner are findings; amortized, cold, large, or cleanly inlinable
// callees are not.
package hotinline

import "sync"

var mu sync.Mutex

// lockedBump is small enough to inline, but the defer blocks it.
func lockedBump(n *int) {
	mu.Lock()
	defer mu.Unlock()
	*n++
}

// plainBump has no blocker, but the compiler rejects it for size
// ("cost 152 exceeds budget 80"), which is not a finding.
func plainBump(n *int) {
	mu.Lock()
	*n++
	mu.Unlock()
}

// guardedSum is small, but it calls recover, which the compiler never
// inlines ("call to recover").
func guardedSum(xs []int) int {
	if recover() != nil {
		return 0
	}
	return len(xs)
}

// leafSum loops without calling: the loop alone is not flagged (a
// small leaf loop still amortizes its call overhead over the data).
func leafSum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// bigKernel is over the size budget: its call overhead is amortized
// over its own work, so the internal calls are nobody's business.
func bigKernel(src, dst []byte) {
	for len(src) >= 8 && len(dst) >= 8 {
		dst[0], dst[1], dst[2], dst[3] = src[0], src[1], src[2], src[3]
		dst[4], dst[5], dst[6], dst[7] = src[4], src[5], src[6], src[7]
		helperA(dst)
		helperB(dst)
		src, dst = src[8:], dst[8:]
	}
	for len(src) > 0 && len(dst) > 0 {
		dst[0] = src[0]
		helperA(dst)
		helperB(dst)
		src, dst = src[1:], dst[1:]
	}
}

func helperA(b []byte) {
	if len(b) > 0 {
		b[0] ^= 1
	}
}

func helperB(b []byte) {
	if len(b) > 0 {
		b[0] ^= 2
	}
}

// coldNote is the reviewed opt-out: amortized poll-point work.
//
//mlec:cold amortized poll-point rendering
func coldNote(n *int) {
	mu.Lock()
	defer mu.Unlock()
	*n = 0
}

// Driver exercises every judgment in one hot loop.
//
//mlec:hot
func Driver(xs []int, counters []int, visit func(int) int) int {
	total := 0
	for i := range xs {
		lockedBump(&total) // want `lockedBump in a hot loop, but its defer defeats the inliner`
		plainBump(&total)
		total += guardedSum(xs) // want `guardedSum in a hot loop, but its recover defeats the inliner`
		total += leafSum(xs)
		total += visit(i) // a call through a function value: hotiface's
		if total > 1<<30 {
			lockedBump(&total) // early-exit branch: at most once per loop
			return total
		}
		coldNote(&total)
	}
	return total
}

// KernelCaller calls the big kernel per iteration: size exempts it.
//
//mlec:hot
func KernelCaller(shards [][]byte, out []byte) {
	for _, s := range shards {
		bigKernel(s, out)
	}
}

// RegionHost is not hot; only the annotated statement is swept.
func RegionHost(xs []int) int {
	total := 0
	for range xs {
		lockedBump(&total) // outside the region: not swept
	}
	//mlec:hot region: the second pass is the steady-state one
	for range xs {
		lockedBump(&total) // want `lockedBump in a hot loop, but its defer defeats the inliner`
	}
	return total
}

// AllowedCall suppresses a true finding with a reviewed directive.
//
//mlec:hot
func AllowedCall(xs []int) int {
	total := 0
	for range xs {
		//lint:allow hotinline the lock must be held per item; inlining is not the fix
		lockedBump(&total)
	}
	return total
}
