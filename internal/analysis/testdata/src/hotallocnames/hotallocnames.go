// Fixture for hotalloc's check of its function lists: in a package the
// configuration scopes, every listed name the package does not declare
// is reported; the fixture's configs list tick and ghost.
package hotallocnames // want "hot function ghost is not declared in package nwade/internal/analysis/testdata/src/hotallocnames"

type engine struct{ buf []int }

func (e *engine) tick() { e.buf = append(e.buf[:0], 1) }
