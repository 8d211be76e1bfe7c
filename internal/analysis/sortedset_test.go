package analysis

import (
	"strings"
	"testing"
)

// The allowlists (sanctioned wall-clock shims, approved sync paths,
// required checkpoint structs) must be sorted and duplicate-free:
// a duplicate entry usually means a merge stitched two edits together,
// and an unsorted list hides that in review. The constructors panic so
// the mistake cannot ship.

// wantPanic runs fn and asserts it panics with a message containing frag.
func wantPanic(t *testing.T, frag string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("want panic containing %q, got none", frag)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, frag) {
			t.Fatalf("want panic containing %q, got %v", frag, r)
		}
	}()
	fn()
}

func TestMustSortedSet(t *testing.T) {
	set := mustSortedSet("x", "Y", []string{"a", "b", "c"})
	if len(set) != 3 || !set["b"] {
		t.Fatalf("sorted list should convert cleanly, got %v", set)
	}
	if got := mustSortedSet("x", "Y", nil); len(got) != 0 {
		t.Fatalf("nil list should give an empty set, got %v", got)
	}
	wantPanic(t, "duplicate entry a", func() {
		mustSortedSet("x", "Y", []string{"a", "a"})
	})
	wantPanic(t, "not sorted", func() {
		mustSortedSet("x", "Y", []string{"b", "a"})
	})
}

func TestNoDeterminismRejectsBadSanctionedList(t *testing.T) {
	wantPanic(t, "nodeterminism Sanctioned", func() {
		NewNoDeterminism(NoDeterminismConfig{
			Sanctioned: []string{"p.f", "p.f"},
		})
	})
}

func TestPhasePurityRejectsBadLists(t *testing.T) {
	wantPanic(t, "phasepurity Sanctioned", func() {
		NewPhasePurity(PhasePurityConfig{Sanctioned: []string{"b", "a"}})
	})
	wantPanic(t, "phasepurity ApprovedSyncPackages", func() {
		NewPhasePurity(PhasePurityConfig{ApprovedSyncPackages: []string{"q", "p"}})
	})
}

func TestSnapDriftRejectsBadRequiredList(t *testing.T) {
	wantPanic(t, "snapdrift RequiredStructs", func() {
		NewSnapDrift(SnapDriftConfig{RequiredStructs: []string{"p.T", "p.T"}})
	})
}

// TestDefaultConfigsAreValid pins the production configurations: if a
// future edit breaks sort order or introduces a duplicate, constructing
// the default analyzer set fails loudly.
func TestDefaultConfigsAreValid(t *testing.T) {
	if got := len(Default()); got < 7 {
		t.Fatalf("default analyzer set suspiciously small: %d", got)
	}
}
