package lint

import (
	"context"
	"testing"
)

// BenchmarkMlecvetWholeRepo measures a full `mlecvet ./...` — load,
// type-check, eager whole-program summary computation, every analyzer,
// and the one compiler build behind the hot-path checks — which is
// exactly what `make check` runs with a 60-second budget (cmd/mlecvet
// -timeout). The benchmark keeps that budget honest locally. On a
// 2-vCPU Xeon (go1.24.0) with a warm GOCACHE a run takes ~4.4–5.2 s, of
// which the compiler build is ~0.2 s. With an empty GOCACHE that build
// also compiles the standard library, and the mlecvet command takes
// ~32 s, still inside the budget.
func BenchmarkMlecvetWholeRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l, err := NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := l.Load("./...")
		if err != nil {
			b.Fatal(err)
		}
		diags, err := Run(context.Background(), pkgs, All())
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("repository is not clean: %v", diags[0])
		}
	}
}
