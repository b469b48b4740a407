package cache

import "stackedsim/internal/mem"

// MissTable is a controller's bounded miss-status table: the lines it has
// in flight, each with its entry, found by a scan of the lines. It holds
// at most the controller's MSHR count (8 in an L1, 16 in a private L2),
// so one contiguous slice of lines is cheaper to scan than a map is to
// hash. The caller checks Len against its bound before Add, as it checks
// Find: a line is entered at most once. Nothing depends on the order of
// the entries, which Remove does not keep.
type MissTable[E any] struct {
	lines []mem.Addr
	ents  []*E
}

// NewMissTable returns an empty table with room for bound entries.
func NewMissTable[E any](bound int) MissTable[E] {
	return MissTable[E]{lines: make([]mem.Addr, 0, bound), ents: make([]*E, 0, bound)}
}

// Len reports the live entries.
func (t *MissTable[E]) Len() int { return len(t.lines) }

// Find returns line's entry, or nil.
func (t *MissTable[E]) Find(line mem.Addr) *E {
	for i, l := range t.lines {
		if l == line {
			return t.ents[i]
		}
	}
	return nil
}

// Add enters e as line's entry.
func (t *MissTable[E]) Add(line mem.Addr, e *E) {
	t.lines = append(t.lines, line)
	t.ents = append(t.ents, e)
}

// Remove deletes line's entry and returns it, or nil if there is none.
// The last entry moves into the freed slot.
func (t *MissTable[E]) Remove(line mem.Addr) *E {
	for i, l := range t.lines {
		if l == line {
			e, last := t.ents[i], len(t.lines)-1
			t.lines[i], t.ents[i] = t.lines[last], t.ents[last]
			t.lines, t.ents = t.lines[:last], t.ents[:last]
			return e
		}
	}
	return nil
}
