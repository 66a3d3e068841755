package lib

import "testing"

func TestLib(t *testing.T) {
	if TestOnly() != 3 || !Oracle() {
		t.Fatal("lib")
	}
}
