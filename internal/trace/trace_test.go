package trace

import (
	"bytes"
	"testing"

	"stackedsim/internal/cpu"
	"stackedsim/internal/workload"
)

func sample() []cpu.UOp {
	return []cpu.UOp{
		{},
		{Mem: true, VAddr: 0x1000, PC: 7},
		{Mem: true, Store: true, VAddr: 0xdeadbeef, PC: 8},
		{Mem: true, VAddr: 42, PC: 9, DependsOnPrev: true},
		{Mispredict: true, PC: 10},
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	ops := sample()
	w, err := NewWriter(&buf, uint64(len(ops)))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := w.Write(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(ops) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(ops))
	}
	for i, want := range ops {
		if got := r.Next(); got != want {
			t.Fatalf("op %d: %+v != %+v", i, got, want)
		}
	}
	// Reader wraps.
	if got := r.Next(); got != ops[0] {
		t.Fatalf("wrap returned %+v", got)
	}
}

func TestWriterCountEnforced(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 1)
	if err := w.Write(cpu.UOp{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(cpu.UOp{}); err == nil {
		t.Fatal("write past declared count succeeded")
	}
	var buf2 bytes.Buffer
	w2, _ := NewWriter(&buf2, 2)
	w2.Write(cpu.UOp{})
	if err := w2.Close(); err == nil {
		t.Fatal("Close with missing μops succeeded")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX0000000000000"),
		append([]byte(Magic), make([]byte, 12)...), // version 0
	}
	for i, data := range cases {
		if _, err := NewReader(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReaderRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 3)
	for _, op := range sample()[:3] {
		w.Write(op)
	}
	w.Close()
	data := buf.Bytes()
	if _, err := NewReader(bytes.NewReader(data[:len(data)-1])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestReaderRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	w.Close()
	if _, err := NewReader(&buf); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestReaderRejectsHugeHeader(t *testing.T) {
	var buf bytes.Buffer
	hdr := append([]byte(Magic), 1, 0, 0, 0)
	hdr = append(hdr, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	buf.Write(hdr)
	if _, err := NewReader(&buf); err == nil {
		t.Fatal("absurd count accepted")
	}
}

func TestRecordGeneratorRoundTrip(t *testing.T) {
	spec, _ := workload.ByName("mcf")
	g := workload.NewGenerator(spec, 3)
	var buf bytes.Buffer
	if err := Record(&buf, g, 5000); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The replayed stream matches a fresh generator with the same seed.
	g2 := workload.NewGenerator(spec, 3)
	for i := 0; i < 5000; i++ {
		if got, want := r.Next(), g2.Next(); got != want {
			t.Fatalf("μop %d: %+v != %+v", i, got, want)
		}
	}
}

// TestBatchReplaysLikeNext pins that Batch walks the same looping
// stream as Next, across the wrap point: after Next has drawn part of
// the trace, a Batch is the rest of it, and the next Batch the whole
// trace again from its first μop.
func TestBatchReplaysLikeNext(t *testing.T) {
	spec, _ := workload.ByName("mcf")
	var buf bytes.Buffer
	if err := Record(&buf, workload.NewGenerator(spec, 3), 1000); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	batched, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var got []cpu.UOp
	for range 337 {
		got = append(got, batched.Next())
	}
	for len(got) < 3500 {
		b := batched.Batch()
		if len(b) == 0 {
			t.Fatalf("empty batch after %d μops", len(got))
		}
		got = append(got, b...)
		if n := len(got); n == 1000 || n == 2000 {
			got = append(got, batched.Next()) // a Next right at the wrap
		}
	}
	for i, op := range got {
		if want := single.Next(); op != want {
			t.Fatalf("μop %d: Batch gives %+v, Next %+v", i, op, want)
		}
	}
}
