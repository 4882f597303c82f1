package asm

// The demand-paged memory is pinned to a flat byte-slice model. The
// interpreter differential (exec_test.go) cannot catch a paging bug: both
// of its interpreters share the paged layer.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// Memory operations a FuzzMachineMemory input decodes into.
const (
	memLoad8 = iota
	memLoad32
	memStore8
	memStore32
	memRead  // read syscall
	memWrite // write syscall
	numMemOps
)

// memOpBytes is the encoded size of one operation: kind (low bits: the
// operation; top bit: the address is relative to the end of memory rather
// than to a page boundary), page (uint16), offset (int16), and a value
// (the stored value, or the syscall's byte count).
const memOpBytes = 9

// encodeMemOp builds one fuzz operation, for the seed corpus.
func encodeMemOp(op byte, fromEnd bool, page uint16, off int16, val uint32) []byte {
	b := make([]byte, memOpBytes)
	b[0] = op
	if fromEnd {
		b[0] |= 0x80
	}
	binary.LittleEndian.PutUint16(b[1:], page)
	binary.LittleEndian.PutUint16(b[3:], uint16(off))
	binary.LittleEndian.PutUint32(b[5:], val)
	return b
}

// memoryProgram is the program whose text and data segments the fuzzed
// machine loads: text at 0x1000 (so 0x1000..0x1013 is read-only), and a
// data image at 0x2000 whose last word straddles the 0x3000 page boundary.
const memoryProgram = `
.data
head: .long 0x11223344, 0x55667788
      .byte 1, 2, 3
      .space 4083
tail: .long 0xdeadbeef
.text
main:
    movl head, %eax
    movl tail, %ebx
    addl %ebx, %eax
    movb $1, head
    ret
`

// minFuzzMem is the smallest memory FuzzMachineMemory uses: three pages
// and ten bytes, enough for the data image and not a whole number of pages.
const minFuzzMem = 3*pageSize + 10

// stdio serves as a program's Stdin and Stdout and logs the size of every
// call, so that the syscalls' call shapes are compared too.
type stdio struct {
	in    io.Reader
	out   bytes.Buffer
	calls []string
}

func (s *stdio) Read(p []byte) (int, error) {
	s.calls = append(s.calls, fmt.Sprint("read ", len(p)))
	return s.in.Read(p)
}

func (s *stdio) Write(p []byte) (int, error) {
	s.calls = append(s.calls, fmt.Sprint("write ", len(p)))
	return s.out.Write(p)
}

// flatModel is the flat-memory machine the paged one must match: one
// []byte, the same faults, and one Stdin.Read or Stdout.Write of n bytes
// per read or write syscall.
type flatModel struct {
	mem               []byte
	textBase, textEnd uint32
	sys               *stdio
}

func newFlatModel(p *Program, memSize int, stdin []byte) *flatModel {
	f := &flatModel{
		mem:      make([]byte, memSize),
		textBase: p.TextBase,
		textEnd:  p.TextEnd(),
		sys:      &stdio{in: bytes.NewReader(stdin)},
	}
	copy(f.mem[p.DataBase:], p.Data)
	binary.LittleEndian.PutUint32(f.mem[memSize-4:], sentinelReturn)
	return f
}

func (f *flatModel) check(addr uint32, size int, write bool) error {
	switch {
	case addr < 0x1000:
		return &SegFault{Addr: addr, Write: write, Why: "NULL page"}
	case uint64(addr)+uint64(size) > uint64(len(f.mem)):
		return &SegFault{Addr: addr, Write: write, Why: "outside memory"}
	case write && addr >= f.textBase && addr < f.textEnd:
		return &SegFault{Addr: addr, Write: true, Why: "text segment is read-only"}
	}
	return nil
}

// apply runs one operation on the model and returns its value (a load's
// result or a syscall's eax) and error.
func (f *flatModel) apply(op int, addr, val uint32) (uint32, error) {
	switch op {
	case memLoad8:
		if err := f.check(addr, 1, false); err != nil {
			return 0, err
		}
		return uint32(f.mem[addr]), nil
	case memLoad32:
		if err := f.check(addr, 4, false); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(f.mem[addr:]), nil
	case memStore8:
		if err := f.check(addr, 1, true); err != nil {
			return 0, err
		}
		f.mem[addr] = byte(val)
		return 0, nil
	case memStore32:
		if err := f.check(addr, 4, true); err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint32(f.mem[addr:], val)
		return 0, nil
	case memRead:
		if err := f.check(addr, int(val), true); err != nil {
			return 0, err
		}
		n, _ := f.sys.Read(f.mem[addr : addr+val])
		return uint32(n), nil
	default:
		if err := f.check(addr, int(val), false); err != nil {
			return 0, err
		}
		n, _ := f.sys.Write(f.mem[addr : addr+val])
		return uint32(n), nil
	}
}

// applyMachine runs one operation on the machine, as apply does on the
// model.
func applyMachine(m *Machine, op int, addr, val uint32) (uint32, error) {
	switch op {
	case memLoad8:
		b, err := m.Load8(addr)
		return uint32(b), err
	case memLoad32:
		return m.Load32(addr)
	case memStore8:
		return 0, m.Store8(addr, byte(val))
	case memStore32:
		return 0, m.Store32(addr, val)
	default:
		m.Regs[EAX], m.Regs[EBX] = 3, 0 // read(0, addr, val)
		if op == memWrite {
			m.Regs[EAX], m.Regs[EBX] = 4, 1 // write(1, addr, val)
		}
		m.Regs[ECX], m.Regs[EDX] = addr, val
		if err := m.syscall(); err != nil {
			return 0, err
		}
		return m.Regs[EAX], nil
	}
}

// FuzzMachineMemory decodes its input into Load8/Load32/Store8/Store32
// calls and read/write syscalls, runs them on a machine and on a flat
// []byte model, and requires equal values, errors, Stdin/Stdout calls,
// output, and final memory.
func FuzzMachineMemory(f *testing.F) {
	var straddle []byte // every 4-byte access that crosses a page boundary
	for _, page := range []uint16{3, 5, 255} {
		for off := int16(-3); off <= -1; off++ {
			straddle = append(straddle, encodeMemOp(memStore32, false, page, off, 0xa1b2c3d4+uint32(off))...)
			straddle = append(straddle, encodeMemOp(memLoad32, false, page, off, 0)...)
			straddle = append(straddle, encodeMemOp(memLoad8, false, page, off+3, 0)...)
		}
	}
	straddle = append(straddle, encodeMemOp(memLoad32, false, 3, -2, 0)...) // initial data word across 0x3000
	// The last valid word and byte of memory, and the first address past them.
	edges := bytes.Join([][]byte{
		encodeMemOp(memStore32, true, 0, -4, 0x01020304),
		encodeMemOp(memLoad32, true, 0, -4, 0),
		encodeMemOp(memStore8, true, 0, -1, 0xff),
		encodeMemOp(memLoad8, true, 0, -1, 0),
		encodeMemOp(memLoad32, true, 0, -3, 0),
		encodeMemOp(memStore32, true, 0, -3, 7),
		encodeMemOp(memLoad8, true, 0, 0, 0),
		encodeMemOp(memStore8, true, 0, 0, 7),
		encodeMemOp(memLoad32, false, 0, -4, 0), // wraps to 0xfffffffc
	}, nil)
	null := bytes.Join([][]byte{
		encodeMemOp(memLoad8, false, 0, 0, 0),
		encodeMemOp(memStore32, false, 0, 0x0ffc, 1),
		encodeMemOp(memLoad32, false, 0, 0x0ffe, 0),
		encodeMemOp(memRead, false, 0, 0x0ff0, 32),
		encodeMemOp(memWrite, false, 0, 0x0800, 4),
	}, nil)
	text := bytes.Join([][]byte{
		encodeMemOp(memStore32, false, 1, 0, 1),
		encodeMemOp(memStore8, false, 1, 0x13, 1),
		encodeMemOp(memStore32, false, 1, 0x14, 1),
		encodeMemOp(memLoad32, false, 1, 4, 0),
		encodeMemOp(memRead, false, 1, 8, 4),
	}, nil)
	// Reads and writes across page boundaries.
	syscalls := bytes.Join([][]byte{
		encodeMemOp(memRead, false, 5, -20, 64),
		encodeMemOp(memWrite, false, 5, -24, 72),
		encodeMemOp(memRead, false, 6, -5000, 3*pageSize),
		encodeMemOp(memWrite, false, 2, 0, 4100),
		encodeMemOp(memWrite, false, 200, 0, 10),
	}, nil)
	stdin := []byte("demand-paged memory, one page at a time")
	for _, size := range []uint32{0, DefaultMemSize - minFuzzMem, 1 << 16} {
		for _, ops := range [][]byte{straddle, edges, null, text, syscalls} {
			f.Add(size, ops, stdin)
		}
	}
	prog, err := AssembleAt(memoryProgram, DefaultTextBase, 0x2000)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, size uint32, ops, stdin []byte) {
		memSize := minFuzzMem + int(size%uint32(DefaultMemSize-minFuzzMem+1))
		m, err := NewMachineSize(prog, memSize)
		if err != nil {
			t.Fatal(err)
		}
		sys := &stdio{in: bytes.NewReader(stdin)}
		m.Stdin, m.Stdout = sys, sys
		model := newFlatModel(prog, memSize, stdin)
		pages := uint32(memSize+pageMask) >> pageShift
		for i := 0; i+memOpBytes <= len(ops) && i < 512*memOpBytes; i += memOpBytes {
			b := ops[i : i+memOpBytes]
			op := int(b[0]&0x7f) % numMemOps
			base := uint32(binary.LittleEndian.Uint16(b[1:])) % (pages + 2) * pageSize
			if b[0]&0x80 != 0 {
				base = uint32(memSize)
			}
			addr := base + uint32(int16(binary.LittleEndian.Uint16(b[3:])))
			val := binary.LittleEndian.Uint32(b[5:])
			if op == memRead || op == memWrite {
				val %= 3 * pageSize
			}
			got, gotErr := applyMachine(m, op, addr, val)
			want, wantErr := model.apply(op, addr, val)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("op %d (%d at %#x, %#x): machine %#x, %v; model %#x, %v",
					i/memOpBytes, op, addr, val, got, gotErr, want, wantErr)
			}
		}
		if fmt.Sprint(sys.calls) != fmt.Sprint(model.sys.calls) {
			t.Fatalf("stdio calls %v, model %v", sys.calls, model.sys.calls)
		}
		if !bytes.Equal(sys.out.Bytes(), model.sys.out.Bytes()) {
			t.Fatalf("stdout %q, model %q", sys.out.Bytes(), model.sys.out.Bytes())
		}
		if mem := flatMem(m); !bytes.Equal(mem, model.mem) {
			for i := range mem {
				if mem[i] != model.mem[i] {
					t.Fatalf("memory differs at %#x: %#x, model %#x", i, mem[i], model.mem[i])
				}
			}
		}
	})
}

// TestNewMachineAllocatesTouchedPagesOnly checks that a machine costs the
// pages its program touches, not its whole 1 MiB address space.
func TestNewMachineAllocatesTouchedPagesOnly(t *testing.T) {
	prog, err := Assemble("main:\n    movl $7, %ebx\n    movl $1, %eax\n    int $0x80\n")
	if err != nil {
		t.Fatal(err)
	}
	const machines = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < machines; i++ {
		m, err := NewMachine(prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(100); err != nil || m.ExitStatus != 7 {
			t.Fatalf("run: exit %d, %v", m.ExitStatus, err)
		}
	}
	runtime.ReadMemStats(&after)
	if perMachine := (after.TotalAlloc - before.TotalAlloc) / machines; perMachine >= 64<<10 {
		t.Errorf("NewMachine + Run allocates %d B per machine, want under 64 KiB", perMachine)
	}
}
