// Package lib holds one exported identifier of each kind the unused-export
// check must tell apart.
package lib

// Used has a production caller (cmd/app).
func Used() int { return 1 }

// BenchUsed has a production caller in the second module only.
func BenchUsed() int { return 2 }

// Dead has no caller at all: reported.
func Dead() {}

// TestOnly is called only from lib_test.go: reported.
func TestOnly() int { return 3 }

// Oracle is called only from lib_test.go but is allowlisted: not reported.
func Oracle() bool { return true }

// Shape is an interface production code calls through.
type Shape interface {
	// Area reports the shape's area.
	Area() float64
}

// Square implements Shape.
type Square struct{ Side float64 }

// Area is called only through Shape: not reported.
func (s Square) Area() float64 { return s.Side * s.Side }

// fatal wraps an error.
type fatal struct{ err error }

// Error satisfies error: not reported.
func (f fatal) Error() string { return "fatal: " + f.err.Error() }

// Unwrap is called only by errors.Is/As: not reported.
func (f fatal) Unwrap() error { return f.err }

// Wrap returns err wrapped as fatal.
func Wrap(err error) error { return fatal{err} }
