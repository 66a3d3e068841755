package pkt

import (
	"math/rand"
	"sort"
	"testing"
)

func TestNodeIndexAddSlotOrder(t *testing.T) {
	var x NodeIndex
	for _, id := range []NodeID{7, 2, 9, 4} {
		if _, ok := x.Add(id); !ok {
			t.Fatalf("Add(%v) rejected", id)
		}
	}
	if _, ok := x.Add(4); ok {
		t.Error("duplicate Add(4) accepted")
	}
	if len(x.ids) != 4 {
		t.Fatalf("Len = %d, want 4", len(x.ids))
	}
	want := []NodeID{2, 4, 7, 9}
	for slot, id := range want {
		if got := x.ids[slot]; got != id {
			t.Errorf("ID(%d) = %v, want %v", slot, got, id)
		}
		if got, ok := x.Slot(id); !ok || got != slot {
			t.Errorf("Slot(%v) = %d,%v, want %d,true", id, got, ok, slot)
		}
	}
	if _, ok := x.Slot(5); ok {
		t.Error("Slot(5) found an absent id")
	}
}

func TestNodeIndexAddReturnsInsertionSlot(t *testing.T) {
	var x NodeIndex
	if slot, _ := x.Add(10); slot != 0 {
		t.Errorf("first Add slot = %d, want 0", slot)
	}
	if slot, _ := x.Add(5); slot != 0 {
		t.Errorf("Add(5) slot = %d, want 0", slot)
	}
	if slot, _ := x.Add(7); slot != 1 {
		t.Errorf("Add(7) slot = %d, want 1", slot)
	}
	if slot, _ := x.Add(20); slot != 3 {
		t.Errorf("Add(20) slot = %d, want 3", slot)
	}
}

func TestNodeIndexRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var x NodeIndex
	seen := map[NodeID]bool{}
	for i := 0; i < 500; i++ {
		id := NodeID(rng.Intn(200))
		_, ok := x.Add(id)
		if ok == seen[id] {
			t.Fatalf("Add(%v) ok=%v with seen=%v", id, ok, seen[id])
		}
		seen[id] = true
	}
	ids := x.IDs()
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Fatal("ids not sorted")
	}
	if len(ids) != len(seen) {
		t.Fatalf("Len = %d, want %d", len(ids), len(seen))
	}
	for slot, id := range ids {
		if got, ok := x.Slot(id); !ok || got != slot {
			t.Errorf("Slot(%v) = %d,%v, want %d,true", id, got, ok, slot)
		}
	}
}
