// Command bench is the fixture's second module.
package main

import (
	"os"

	"fixture"
	"fixture/internal/lib"
)

func main() { os.Exit(lib.BenchUsed() - fixture.Version) }
