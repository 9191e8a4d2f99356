// Package lib exercises the dead-export analyzer: every exported name
// below is either referred to by a non-test file of the module or of the
// nested replace module in user/, or flagged.
package lib

import "fmt"

// Dead has no referrer at all.
func Dead() {}

// TestOnly is referred to only from lib_test.go.
func TestOnly() int { return 1 }

// Recursive refers only to itself, which does not count.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// UsedByNested is referred to only by the nested module in user/.
func UsedByNested() int { return 2 }

// T is used by cmd/app.
type T struct{ n int }

// Len is called by cmd/app.
func (t T) Len() int { return t.n }

// DeadMethod is never called.
func (t T) DeadMethod() int { return t.n + 1 }

// String and Error are reached by fmt and errors through type assertions.
func (t T) String() string { return fmt.Sprint(t.n) }

func (t T) Error() string { return "t" }

// Orphan is named only by its own method's receiver.
type Orphan struct{}

func (Orphan) String() string { return "orphan" }

// Shape is a module interface cmd/app calls through.
type Shape interface{ Area() float64 }

// Square satisfies Shape; Area is only ever called dynamically.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// Src satisfies io.Reader by being passed to io.ReadAll in cmd/app.
type Src struct{}

func (*Src) Read(p []byte) (int, error) { return 0, fmt.Errorf("empty") }

// The index block stays whole when any constant in it is used.
const (
	A = iota
	B
	C
)

// Lone is a dead constant outside any group.
const Lone = 3

//pcslint:ignore dead-export -- called from generated code this fixture does not build
func Kept() {}

// Used is called by cmd/app, so its suppression suppresses nothing.
//
//pcslint:ignore dead-export -- a suppression on a live name is itself a finding
func Used() {}
