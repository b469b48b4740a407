// Package mem defines the types shared across the memory hierarchy:
// physical and virtual addresses, memory requests, the DRAM address map,
// and the first-touch virtual-to-physical page table the paper assumes.
package mem

import "fmt"

// Addr is a physical byte address.
type Addr uint64

// VAddr is a virtual byte address. The upper bits carry the core/process
// ID so that the multi-programmed workloads occupy disjoint address
// spaces, as in the paper's methodology.
type VAddr uint64

// Loc identifies the DRAM resources a physical address maps to.
type Loc struct {
	MC   int   // memory controller / channel
	Rank int   // rank within the channel
	Bank int   // bank within the rank
	Row  int64 // DRAM row (one row = one OS page in this study)
	Col  int   // cache-line-sized column within the row
}

func (l Loc) String() string {
	return fmt.Sprintf("mc%d.r%d.b%d.row%d.col%d", l.MC, l.Rank, l.Bank, l.Row, l.Col)
}

// AddrMap decomposes physical addresses onto the DRAM topology.
//
// Main memory is interleaved at OS-page granularity (4KB in the paper):
// consecutive physical pages rotate first across memory controllers, then
// across the ranks owned by each controller, then across banks, so that
// streaming traffic spreads over every controller and rank.
type AddrMap struct {
	LineBytes  int // cache line size (64)
	PageBytes  int // OS page and DRAM row size (4096)
	MCs        int // number of memory controllers
	RanksPerMC int // ranks owned by each controller
	Banks      int // banks per rank
}

// Validate reports a descriptive error if the map is malformed.
func (m AddrMap) Validate() error {
	switch {
	case m.LineBytes <= 0 || m.LineBytes&(m.LineBytes-1) != 0:
		return fmt.Errorf("mem: LineBytes %d must be a positive power of two", m.LineBytes)
	case m.PageBytes <= 0 || m.PageBytes&(m.PageBytes-1) != 0:
		return fmt.Errorf("mem: PageBytes %d must be a positive power of two", m.PageBytes)
	case m.PageBytes < m.LineBytes:
		return fmt.Errorf("mem: PageBytes %d < LineBytes %d", m.PageBytes, m.LineBytes)
	case m.MCs <= 0:
		return fmt.Errorf("mem: MCs %d must be positive", m.MCs)
	case m.RanksPerMC <= 0:
		return fmt.Errorf("mem: RanksPerMC %d must be positive", m.RanksPerMC)
	case m.Banks <= 0:
		return fmt.Errorf("mem: Banks %d must be positive", m.Banks)
	}
	return nil
}

// Line returns the line-aligned address containing a.
func (m AddrMap) Line(a Addr) Addr { return a &^ Addr(m.LineBytes-1) }

// Page returns the page-aligned address containing a.
func (m AddrMap) Page(a Addr) Addr { return a &^ Addr(m.PageBytes-1) }

// PageNum returns the physical page number of a.
func (m AddrMap) PageNum(a Addr) int64 { return int64(a) / int64(m.PageBytes) }

// Decode maps a physical address to its DRAM location.
func (m AddrMap) Decode(a Addr) Loc {
	page := m.PageNum(a)
	mc := int(page % int64(m.MCs))
	page /= int64(m.MCs)
	rank := int(page % int64(m.RanksPerMC))
	page /= int64(m.RanksPerMC)
	bank := int(page % int64(m.Banks))
	row := page / int64(m.Banks)
	col := int(a%Addr(m.PageBytes)) / m.LineBytes
	return Loc{MC: mc, Rank: rank, Bank: bank, Row: row, Col: col}
}

// MCOf reports just the memory controller for a (cheap fast path).
func (m AddrMap) MCOf(a Addr) int { return int(m.PageNum(a) % int64(m.MCs)) }
