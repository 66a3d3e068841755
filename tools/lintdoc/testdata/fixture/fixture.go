// Package fixture is the fixture's root package, checked like internal/.
package fixture

// Version has a production caller in the second module only.
const Version = 2

// Unused has no caller at all: reported.
func Unused() {}
