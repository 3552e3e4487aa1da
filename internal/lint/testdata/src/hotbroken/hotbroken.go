// Package hotbroken type-checks but does not compile: Kernel has no
// body and no assembly supplies one ("missing function body"). The
// compiler check must fail on it, never report it clean.
package hotbroken

// Kernel is the hot function the compiler cannot build.
//
//mlec:hot
func Kernel(s []byte) byte
