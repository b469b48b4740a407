// Package trace records and replays μop streams in a compact binary
// format. Traces make experiments exactly repeatable across generator
// changes and allow inspecting what the synthetic benchmarks emit
// (cmd/tracegen).
//
// Format: a 16-byte header ("SSTR" magic, version, count) followed by
// one record per μop:
//
//	flags  uint8  (bit0 mem, bit1 store, bit2 dependsOnPrev, bit3 mispredict)
//	pc     uvarint
//	vaddr  uvarint (memory μops only)
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"stackedsim/internal/cpu"
)

// Magic identifies a stackedsim trace stream.
const Magic = "SSTR"

// Version is the current format version.
const Version = 1

const (
	flagMem uint8 = 1 << iota
	flagStore
	flagDepends
	flagMispredict
)

// Writer streams μops to w.
type Writer struct {
	bw    *bufio.Writer
	count uint64
	done  bool
}

// NewWriter emits a header for n μops (n must be the exact count that
// will be written) and returns a Writer.
func NewWriter(w io.Writer, n uint64) (*Writer, error) {
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	copy(hdr[:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint64(hdr[8:16], n)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{bw: bw, count: n}, nil
}

// Write appends one μop. It fails once the declared count is exhausted.
func (w *Writer) Write(op cpu.UOp) error {
	if w.count == 0 {
		return errors.New("trace: writing past declared μop count")
	}
	w.count--
	var flags uint8
	if op.Mem {
		flags |= flagMem
	}
	if op.Store {
		flags |= flagStore
	}
	if op.DependsOnPrev {
		flags |= flagDepends
	}
	if op.Mispredict {
		flags |= flagMispredict
	}
	var buf [1 + 2*binary.MaxVarintLen64]byte
	buf[0] = flags
	n := 1
	n += binary.PutUvarint(buf[n:], op.PC)
	if op.Mem {
		n += binary.PutUvarint(buf[n:], op.VAddr)
	}
	_, err := w.bw.Write(buf[:n])
	return err
}

// Close flushes buffered records. It fails if fewer μops were written
// than declared.
func (w *Writer) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	if w.count != 0 {
		return fmt.Errorf("trace: %d declared μops never written", w.count)
	}
	return w.bw.Flush()
}

// Reader replays a recorded stream. It implements cpu.UOpSource and
// cpu.Batcher by looping back to the first μop at end of trace (programs
// re-run their sample, as with SimPoint replay).
type Reader struct {
	ops []cpu.UOp
	pos int
}

// NewReader parses an entire trace from r.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(hdr[:4]) != Magic {
		return nil, errors.New("trace: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint64(hdr[8:16])
	const maxOps = 1 << 28 // refuse absurd headers rather than OOM
	if count > maxOps {
		return nil, fmt.Errorf("trace: %d μops exceeds reader limit", count)
	}
	ops := make([]cpu.UOp, 0, count)
	for i := uint64(0); i < count; i++ {
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: truncated at μop %d: %w", i, err)
		}
		var op cpu.UOp
		op.Mem = flags&flagMem != 0
		op.Store = flags&flagStore != 0
		op.DependsOnPrev = flags&flagDepends != 0
		op.Mispredict = flags&flagMispredict != 0
		if op.PC, err = binary.ReadUvarint(br); err != nil {
			return nil, fmt.Errorf("trace: truncated PC at μop %d: %w", i, err)
		}
		if op.Mem {
			if op.VAddr, err = binary.ReadUvarint(br); err != nil {
				return nil, fmt.Errorf("trace: truncated addr at μop %d: %w", i, err)
			}
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return nil, errors.New("trace: empty trace")
	}
	return &Reader{ops: ops}, nil
}

// Len reports the number of recorded μops.
func (r *Reader) Len() int { return len(r.ops) }

// Next implements cpu.UOpSource, wrapping at end of trace.
func (r *Reader) Next() cpu.UOp {
	op := r.ops[r.pos]
	r.pos++
	if r.pos == len(r.ops) {
		r.pos = 0
	}
	return op
}

// Batch implements cpu.Batcher: the rest of the trace up to its end,
// zero-copy. The slice aliases the parsed trace, which nothing writes
// after NewReader, so it stays valid for the life of the Reader.
func (r *Reader) Batch() []cpu.UOp {
	b := r.ops[r.pos:]
	r.pos = 0
	return b
}

// Record captures n μops from src.
func Record(w io.Writer, src cpu.UOpSource, n uint64) error {
	tw, err := NewWriter(w, n)
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		if err := tw.Write(src.Next()); err != nil {
			return err
		}
	}
	return tw.Close()
}
