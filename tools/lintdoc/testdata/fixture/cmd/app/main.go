// Command app is the fixture's production code.
package main

import (
	"errors"
	"io"
	"os"

	"fixture/internal/fixture"
	"fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.Square{Side: float64(lib.Used())}
	if errors.Is(lib.Wrap(io.EOF), io.EOF) && s.Area() > 0 {
		os.Exit(fixture.Inner())
	}
}
