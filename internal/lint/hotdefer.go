package lint

// HotDefer flags defer statements inside loops of hot scope. A defer
// in a loop cannot be open-coded: each iteration heap-allocates a
// _defer record and chains it, and nothing runs until the function
// returns — so the usual close-per-iteration intent is wrong twice
// over (it leaks until return and it allocates per iteration). The
// remedy is an explicit call at the end of the iteration, or an inner
// function owning the defer.
//
// The verdict is the compiler's `heap-allocated defer` (-d=defer, see
// hotalloc.go), so loops written with a backward goto count too; an
// open-coded or stack-allocated defer is fine even in hot scope.
var HotDefer = &Analyzer{
	Name: "hotdefer",
	Doc:  "forbid heap-allocated defers (defers inside loops) on hot paths (-d=defer)",
	Run:  runEscapeCheck,
}
