// Package deadexport is the fixture module's root package. The module
// builds a program (cmd/app), so its non-main packages outside internal/
// are held to the same rule as internal/ ones.
package deadexport

// Greet is called by cmd/app.
func Greet() string { return "hello" }

// Tested is referred to only from deadexport_test.go.
func Tested() int { return 1 }
