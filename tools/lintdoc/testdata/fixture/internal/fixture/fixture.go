// Package fixture shares its name with the fixture's root package, as
// internal/ezflow does with ezflow.
package fixture

// Inner has a production caller (cmd/app).
func Inner() int { return 0 }
