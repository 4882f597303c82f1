package asm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cs31/internal/circuit"
	"cs31/internal/memcheck"
)

// DefaultMemSize is the machine's memory size (1 MiB).
const DefaultMemSize = 1 << 20

// pageShift and pageSize fix the 4 KiB page of the machine's demand-paged
// memory: the address space is a table of page pointers, a page is
// allocated on its first write, and an absent page reads as zero.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Flags is the EFLAGS subset the course teaches.
type Flags struct {
	ZF bool // zero
	SF bool // sign
	CF bool // carry (unsigned overflow / borrow)
	OF bool // overflow (signed)
}

// SegFault reports an invalid memory access, the error students meet as a
// segmentation violation.
type SegFault struct {
	Addr  uint32
	Write bool
	Why   string
}

func (e *SegFault) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("asm: segmentation fault: %s at %#x (%s)", kind, e.Addr, e.Why)
}

// ErrExited is returned by Step after the program has exited.
var ErrExited = errors.New("asm: program exited")

// MemEvent describes one data-memory access, the raw material for the cache
// and virtual-memory simulators downstream in the vertical slice.
type MemEvent struct {
	Addr  uint32
	Size  uint8 // bytes: 1 or 4
	Write bool
	PC    uint32 // address of the instruction performing the access
}

// Machine executes an assembled Program: eight 32-bit registers, EFLAGS,
// a byte-addressed memory holding the data segment, heap, and stack, and a
// tiny syscall interface reached through "int $0x80".
//
// Memory is demand-paged in 4 KiB pages over the whole address space, the
// paging the vm package simulates: a program that touches three pages of
// its 1 MiB pays for three pages. Callers read and write it through Load8,
// Load32, Store8 and Store32.
//
// Syscalls (number in eax):
//
//	1  exit(ebx)                  — stop; ebx is the exit status
//	3  read(ebx, ecx buf, edx n)  — read up to n bytes from Stdin into buf
//	4  write(ebx, ecx buf, edx n) — write n bytes from buf to Stdout
//	5  print_int(ebx)             — write decimal ebx to Stdout (teaching aid)
//	6  read_int()                 — parse a decimal integer from Stdin into eax
//	7  print_str(ebx)             — write the NUL-terminated string at ebx
//	90 sbrk(ebx)                  — grow the heap; returns the old break in eax
//	91 malloc(ebx)                — checked allocation; 0 on exhaustion
//	92 free(ebx)                  — release a checked allocation
//
// Syscalls 91/92 route through a memcheck.Heap, so programs that leak,
// double-free, or touch freed memory are reported by MemcheckReport —
// Valgrind for compiled programs.
type Machine struct {
	Regs  [NumRegisters]uint32
	Flags Flags
	PC    int // instruction index into prog.Instrs

	Prog *Program

	Stdin  io.Reader
	Stdout io.Writer

	Exited     bool
	ExitStatus int32
	Steps      int64

	// Trace, when non-nil, receives every data memory access.
	Trace func(MemEvent)

	// pages[i] backs addresses [i*pageSize, (i+1)*pageSize); nil until
	// the first write to it. memSize is the address-space size.
	pages   []*[pageSize]byte
	memSize int

	brk uint32 // heap break (sbrk allocator)

	// Heap is the checked allocator behind the malloc/free syscalls,
	// created on first use. heapBase/heapLimit bound the checked segment.
	Heap      *memcheck.Heap
	heapBase  uint32
	heapLimit uint32

	// fns is the program's decoded-dispatch table (one closure per
	// instruction), resolved once at load.
	fns []execFn
}

// NewMachine loads a program into a fresh machine with the default memory
// size. The stack pointer starts at the top of memory; the heap begins just
// past the data segment.
func NewMachine(p *Program) (*Machine, error) {
	return NewMachineSize(p, DefaultMemSize)
}

// NewMachineSize loads a program with an explicit memory size.
func NewMachineSize(p *Program, memSize int) (*Machine, error) {
	if memSize < 1<<12 {
		return nil, fmt.Errorf("asm: memory size %d too small", memSize)
	}
	if int(p.DataBase)+len(p.Data) > memSize {
		return nil, fmt.Errorf("asm: data segment (%d bytes at %#x) exceeds memory",
			len(p.Data), p.DataBase)
	}
	m := &Machine{
		Prog:    p,
		Stdin:   bytes.NewReader(nil),
		Stdout:  io.Discard,
		pages:   make([]*[pageSize]byte, (memSize+pageMask)>>pageShift),
		memSize: memSize,
		fns:     p.execFns(),
	}
	m.writeBytes(p.DataBase, p.Data)
	m.brk = p.DataBase + uint32(len(p.Data))
	if m.brk < p.DataBase+1 {
		m.brk = p.DataBase
	}
	m.Regs[ESP] = uint32(memSize)
	idx, err := p.InstrAt(p.Entry)
	if err != nil {
		if len(p.Instrs) == 0 {
			return nil, fmt.Errorf("asm: empty program")
		}
		idx = 0
	}
	m.PC = idx
	// Push a sentinel return address so that "ret" from the entry function
	// exits cleanly instead of faulting.
	if err := m.push(sentinelReturn); err != nil {
		return nil, err
	}
	return m, nil
}

// sentinelReturn is the fake return address at the bottom of the call
// stack; returning to it exits the program with eax as the status.
const sentinelReturn = 0xfffffffc

func (m *Machine) checkAddr(addr uint32, size int, write bool) error {
	if addr < 0x1000 {
		return &SegFault{Addr: addr, Write: write, Why: "NULL page"}
	}
	if uint64(addr)+uint64(size) > uint64(m.memSize) {
		return &SegFault{Addr: addr, Write: write, Why: "outside memory"}
	}
	if write && addr >= m.Prog.TextBase && addr < m.Prog.TextEnd() {
		return &SegFault{Addr: addr, Write: true, Why: "text segment is read-only"}
	}
	return nil
}

// checkHeap routes heap-segment accesses through the memcheck heap.
func (m *Machine) checkHeap(addr uint32, size int, write bool) {
	if m.Heap == nil || addr < m.heapBase || addr >= m.heapLimit {
		return
	}
	if write {
		m.Heap.Write(addr, uint32(size))
	} else {
		m.Heap.Read(addr, uint32(size))
	}
}

func (m *Machine) trace(addr uint32, size int, write bool) {
	if m.Trace != nil {
		var pc uint32
		if m.PC >= 0 && m.PC < len(m.Prog.Instrs) {
			pc = m.Prog.Instrs[m.PC].Addr
		}
		m.Trace(MemEvent{Addr: addr, Size: uint8(size), Write: write, PC: pc})
	}
}

// Load32 reads a 32-bit little-endian word from memory.
func (m *Machine) Load32(addr uint32) (uint32, error) {
	if err := m.checkAddr(addr, 4, false); err != nil {
		return 0, err
	}
	m.trace(addr, 4, false)
	m.checkHeap(addr, 4, false)
	if off := addr & pageMask; off <= pageSize-4 {
		if pg := m.pages[addr>>pageShift]; pg != nil {
			return binary.LittleEndian.Uint32(pg[off:]), nil
		}
		return 0, nil
	}
	// The word straddles two pages.
	return uint32(m.load8(addr)) | uint32(m.load8(addr+1))<<8 |
		uint32(m.load8(addr+2))<<16 | uint32(m.load8(addr+3))<<24, nil
}

// Store32 writes a 32-bit little-endian word to memory.
func (m *Machine) Store32(addr uint32, v uint32) error {
	if err := m.checkAddr(addr, 4, true); err != nil {
		return err
	}
	m.trace(addr, 4, true)
	m.checkHeap(addr, 4, true)
	if off := addr & pageMask; off <= pageSize-4 {
		binary.LittleEndian.PutUint32(m.page(addr)[off:], v)
		return nil
	}
	// The word straddles two pages.
	m.store8(addr, byte(v))
	m.store8(addr+1, byte(v>>8))
	m.store8(addr+2, byte(v>>16))
	m.store8(addr+3, byte(v>>24))
	return nil
}

// Load8 reads one byte from memory.
func (m *Machine) Load8(addr uint32) (byte, error) {
	if err := m.checkAddr(addr, 1, false); err != nil {
		return 0, err
	}
	m.trace(addr, 1, false)
	m.checkHeap(addr, 1, false)
	return m.load8(addr), nil
}

// Store8 writes one byte to memory.
func (m *Machine) Store8(addr uint32, v byte) error {
	if err := m.checkAddr(addr, 1, true); err != nil {
		return err
	}
	m.trace(addr, 1, true)
	m.checkHeap(addr, 1, true)
	m.store8(addr, v)
	return nil
}

// The helpers below move bytes between pages and the caller without
// checks, traces or memcheck; callers have bounds-checked the range.

// page returns the page holding addr, allocating it on first use.
func (m *Machine) page(addr uint32) *[pageSize]byte {
	pg := m.pages[addr>>pageShift]
	if pg == nil {
		pg = new([pageSize]byte)
		m.pages[addr>>pageShift] = pg
	}
	return pg
}

func (m *Machine) load8(addr uint32) byte {
	if pg := m.pages[addr>>pageShift]; pg != nil {
		return pg[addr&pageMask]
	}
	return 0
}

func (m *Machine) store8(addr uint32, v byte) {
	m.page(addr)[addr&pageMask] = v
}

// readBytes copies len(b) bytes of memory starting at addr into b.
func (m *Machine) readBytes(addr uint32, b []byte) {
	for len(b) > 0 {
		n := min(len(b), pageSize-int(addr&pageMask))
		if pg := m.pages[addr>>pageShift]; pg != nil {
			copy(b[:n], pg[addr&pageMask:])
		} else {
			clear(b[:n])
		}
		b = b[n:]
		addr += uint32(n)
	}
}

// writeBytes copies b into memory starting at addr.
func (m *Machine) writeBytes(addr uint32, b []byte) {
	for len(b) > 0 {
		n := copy(m.page(addr)[addr&pageMask:], b)
		b = b[n:]
		addr += uint32(n)
	}
}

func (m *Machine) push(v uint32) error {
	m.Regs[ESP] -= 4
	return m.Store32(m.Regs[ESP], v)
}

func (m *Machine) pop() (uint32, error) {
	v, err := m.Load32(m.Regs[ESP])
	if err != nil {
		return 0, err
	}
	m.Regs[ESP] += 4
	return v, nil
}

// EffectiveAddr computes the address of a memory operand.
func (m *Machine) EffectiveAddr(op Operand) (uint32, error) {
	if op.Kind != OpMem {
		return 0, fmt.Errorf("asm: operand %v is not a memory reference", op)
	}
	addr := uint32(op.Disp)
	if op.Base != NoReg {
		addr += m.Regs[op.Base]
	}
	if op.Index != NoReg {
		addr += m.Regs[op.Index] * uint32(op.Scale)
	}
	return addr, nil
}

// readOp fetches a 32-bit operand value.
func (m *Machine) readOp(op Operand) (uint32, error) {
	switch op.Kind {
	case OpImm, OpLabel:
		return uint32(op.Imm), nil
	case OpReg:
		return m.Regs[op.Reg], nil
	case OpMem:
		addr, err := m.EffectiveAddr(op)
		if err != nil {
			return 0, err
		}
		return m.Load32(addr)
	default:
		return 0, fmt.Errorf("asm: unreadable operand")
	}
}

// writeOp stores a 32-bit value to a register or memory operand.
func (m *Machine) writeOp(op Operand, v uint32) error {
	switch op.Kind {
	case OpReg:
		m.Regs[op.Reg] = v
		return nil
	case OpMem:
		addr, err := m.EffectiveAddr(op)
		if err != nil {
			return err
		}
		return m.Store32(addr, v)
	default:
		return fmt.Errorf("asm: operand %v is not writable", op)
	}
}

// setFlagsFromALU converts the reference-ALU flags to EFLAGS semantics.
// For subtraction x86 sets CF on borrow, the inverse of the adder carry.
func (m *Machine) setFlagsFromALU(f circuit.Flags, isSub bool) {
	m.Flags.ZF = f.Zero
	m.Flags.SF = f.Sign
	m.Flags.OF = f.Overflow
	if isSub {
		m.Flags.CF = !f.Carry
	} else {
		m.Flags.CF = f.Carry
	}
}

func (m *Machine) setLogicFlags(res uint32) {
	m.Flags.ZF = res == 0
	m.Flags.SF = res&0x80000000 != 0
	m.Flags.CF = false
	m.Flags.OF = false
}

// conditionHolds evaluates a conditional-jump predicate against EFLAGS —
// the table students memorize for tracing jumps after cmpl.
func (m *Machine) conditionHolds(mn Mnemonic) bool {
	f := m.Flags
	switch mn {
	case JE:
		return f.ZF
	case JNE:
		return !f.ZF
	case JL:
		return f.SF != f.OF
	case JLE:
		return f.ZF || f.SF != f.OF
	case JG:
		return !f.ZF && f.SF == f.OF
	case JGE:
		return f.SF == f.OF
	case JB:
		return f.CF
	case JBE:
		return f.CF || f.ZF
	case JA:
		return !f.CF && !f.ZF
	case JAE:
		return !f.CF
	case JS:
		return f.SF
	case JNS:
		return !f.SF
	default:
		return false
	}
}

func (m *Machine) jumpTo(addr uint32, nextPC *int) error {
	if addr == sentinelReturn {
		m.Exited = true
		m.ExitStatus = int32(m.Regs[EAX])
		return nil
	}
	idx, err := m.Prog.InstrAt(addr)
	if err != nil {
		return fmt.Errorf("asm: jump to %#x: %w", addr, err)
	}
	*nextPC = idx
	return nil
}

// Step executes one instruction through the decoded-dispatch table. It
// returns ErrExited once the program has exited, and any runtime fault
// (segfault, divide by zero, bad jump) stops the machine permanently.
func (m *Machine) Step() error {
	if m.Exited {
		return ErrExited
	}
	if m.PC < 0 || m.PC >= len(m.Prog.Instrs) {
		m.Exited = true
		return fmt.Errorf("asm: PC %d outside text segment", m.PC)
	}
	if m.fns == nil {
		m.fns = m.Prog.execFns()
	}
	m.Steps++

	nextPC, err := m.fns[m.PC](m, m.PC+1)
	if err != nil {
		in := m.Prog.Instrs[m.PC]
		m.Exited = true
		return fmt.Errorf("asm: %#x (%s, line %d): %w", in.Addr, in.String(), in.Line, err)
	}
	if !m.Exited {
		m.PC = nextPC
	}
	return nil
}

// stepReference executes one instruction through the original switch-ladder
// interpreter. It is retained as the semantic reference the decoded
// dispatch path is differential-tested against (exec_test.go).
func (m *Machine) stepReference() error {
	if m.Exited {
		return ErrExited
	}
	if m.PC < 0 || m.PC >= len(m.Prog.Instrs) {
		m.Exited = true
		return fmt.Errorf("asm: PC %d outside text segment", m.PC)
	}
	in := m.Prog.Instrs[m.PC]
	m.Steps++
	nextPC := m.PC + 1

	if err := m.executeInstr(in, &nextPC); err != nil {
		m.Exited = true
		return fmt.Errorf("asm: %#x (%s, line %d): %w", in.Addr, in.String(), in.Line, err)
	}
	if !m.Exited {
		m.PC = nextPC
	}
	return nil
}

func (m *Machine) executeInstr(in Instruction, nextPC *int) error {
	switch in.Mn {
	case NOP:
		return nil

	case MOVL:
		v, err := m.readOp(in.Ops[0])
		if err != nil {
			return err
		}
		return m.writeOp(in.Ops[1], v)

	case MOVB:
		var b byte
		switch in.Ops[0].Kind {
		case OpImm:
			b = byte(in.Ops[0].Imm)
		case OpReg:
			b = byte(m.Regs[in.Ops[0].Reg])
		case OpMem:
			addr, err := m.EffectiveAddr(in.Ops[0])
			if err != nil {
				return err
			}
			var err2 error
			b, err2 = m.Load8(addr)
			if err2 != nil {
				return err2
			}
		}
		switch in.Ops[1].Kind {
		case OpReg:
			m.Regs[in.Ops[1].Reg] = m.Regs[in.Ops[1].Reg]&^0xff | uint32(b)
			return nil
		case OpMem:
			addr, err := m.EffectiveAddr(in.Ops[1])
			if err != nil {
				return err
			}
			return m.Store8(addr, b)
		default:
			return fmt.Errorf("bad movb destination")
		}

	case MOVZBL, MOVSBL:
		var b byte
		switch in.Ops[0].Kind {
		case OpReg:
			b = byte(m.Regs[in.Ops[0].Reg])
		case OpMem:
			addr, err := m.EffectiveAddr(in.Ops[0])
			if err != nil {
				return err
			}
			var err2 error
			b, err2 = m.Load8(addr)
			if err2 != nil {
				return err2
			}
		default:
			return fmt.Errorf("bad %s source", in.Mn)
		}
		v := uint32(b)
		if in.Mn == MOVSBL && b&0x80 != 0 {
			v |= 0xffffff00
		}
		return m.writeOp(in.Ops[1], v)

	case LEAL:
		addr, err := m.EffectiveAddr(in.Ops[0])
		if err != nil {
			return err
		}
		return m.writeOp(in.Ops[1], addr)

	case ADDL, SUBL, CMPL:
		src, err := m.readOp(in.Ops[0])
		if err != nil {
			return err
		}
		dst, err := m.readOp(in.Ops[1])
		if err != nil {
			return err
		}
		aluOp := circuit.OpAdd
		isSub := in.Mn != ADDL
		if isSub {
			aluOp = circuit.OpSub
		}
		res, f := circuit.RefALU(aluOp, uint64(dst), uint64(src), 32)
		m.setFlagsFromALU(f, isSub)
		if in.Mn == CMPL {
			return nil
		}
		return m.writeOp(in.Ops[1], uint32(res))

	case IMULL:
		src, err := m.readOp(in.Ops[0])
		if err != nil {
			return err
		}
		dst, err := m.readOp(in.Ops[1])
		if err != nil {
			return err
		}
		wide := int64(int32(dst)) * int64(int32(src))
		res := uint32(wide)
		overflow := wide != int64(int32(res))
		m.Flags.CF = overflow
		m.Flags.OF = overflow
		m.Flags.ZF = res == 0
		m.Flags.SF = res&0x80000000 != 0
		return m.writeOp(in.Ops[1], res)

	case IDIVL:
		div, err := m.readOp(in.Ops[0])
		if err != nil {
			return err
		}
		if div == 0 {
			return errors.New("divide by zero")
		}
		num := int64(m.Regs[EDX])<<32 | int64(m.Regs[EAX])
		q := num / int64(int32(div))
		r := num % int64(int32(div))
		if q > 1<<31-1 || q < -(1<<31) {
			return errors.New("idivl quotient overflow")
		}
		m.Regs[EAX] = uint32(q)
		m.Regs[EDX] = uint32(r)
		return nil

	case CLTD:
		if int32(m.Regs[EAX]) < 0 {
			m.Regs[EDX] = 0xffffffff
		} else {
			m.Regs[EDX] = 0
		}
		return nil

	case ANDL, ORL, XORL, TESTL:
		src, err := m.readOp(in.Ops[0])
		if err != nil {
			return err
		}
		dst, err := m.readOp(in.Ops[1])
		if err != nil {
			return err
		}
		var res uint32
		switch in.Mn {
		case ANDL, TESTL:
			res = dst & src
		case ORL:
			res = dst | src
		case XORL:
			res = dst ^ src
		}
		m.setLogicFlags(res)
		if in.Mn == TESTL {
			return nil
		}
		return m.writeOp(in.Ops[1], res)

	case NOTL:
		v, err := m.readOp(in.Ops[0])
		if err != nil {
			return err
		}
		return m.writeOp(in.Ops[0], ^v) // notl does not touch flags

	case NEGL:
		v, err := m.readOp(in.Ops[0])
		if err != nil {
			return err
		}
		res, f := circuit.RefALU(circuit.OpSub, 0, uint64(v), 32)
		m.setFlagsFromALU(f, true)
		m.Flags.CF = v != 0 // x86: CF set unless operand was zero
		return m.writeOp(in.Ops[0], uint32(res))

	case INCL, DECL:
		v, err := m.readOp(in.Ops[0])
		if err != nil {
			return err
		}
		op := circuit.OpAdd
		if in.Mn == DECL {
			op = circuit.OpSub
		}
		res, f := circuit.RefALU(op, uint64(v), 1, 32)
		savedCF := m.Flags.CF // inc/dec preserve CF
		m.setFlagsFromALU(f, in.Mn == DECL)
		m.Flags.CF = savedCF
		return m.writeOp(in.Ops[0], uint32(res))

	case SALL, SARL, SHRL:
		cnt, err := m.readOp(in.Ops[0])
		if err != nil {
			return err
		}
		cnt &= 31
		dst, err := m.readOp(in.Ops[1])
		if err != nil {
			return err
		}
		var res uint32
		if cnt > 0 {
			switch in.Mn {
			case SALL:
				m.Flags.CF = dst&(1<<(32-cnt)) != 0
				res = dst << cnt
			case SARL:
				m.Flags.CF = dst&(1<<(cnt-1)) != 0
				res = uint32(int32(dst) >> cnt)
			case SHRL:
				m.Flags.CF = dst&(1<<(cnt-1)) != 0
				res = dst >> cnt
			}
			m.Flags.ZF = res == 0
			m.Flags.SF = res&0x80000000 != 0
			m.Flags.OF = false
		} else {
			res = dst
		}
		return m.writeOp(in.Ops[1], res)

	case PUSHL:
		v, err := m.readOp(in.Ops[0])
		if err != nil {
			return err
		}
		return m.push(v)

	case POPL:
		v, err := m.pop()
		if err != nil {
			return err
		}
		return m.writeOp(in.Ops[0], v)

	case CALL:
		target, err := m.readOp(in.Ops[0])
		if err != nil {
			return err
		}
		retAddr := m.Prog.TextBase + uint32(*nextPC)*InstrBytes
		if err := m.push(retAddr); err != nil {
			return err
		}
		return m.jumpTo(target, nextPC)

	case RET:
		addr, err := m.pop()
		if err != nil {
			return err
		}
		return m.jumpTo(addr, nextPC)

	case LEAVE:
		m.Regs[ESP] = m.Regs[EBP]
		v, err := m.pop()
		if err != nil {
			return err
		}
		m.Regs[EBP] = v
		return nil

	case JMP:
		target, err := m.readOp(in.Ops[0])
		if err != nil {
			return err
		}
		return m.jumpTo(target, nextPC)

	case JE, JNE, JL, JLE, JG, JGE, JB, JBE, JA, JAE, JS, JNS:
		if m.conditionHolds(in.Mn) {
			target, err := m.readOp(in.Ops[0])
			if err != nil {
				return err
			}
			return m.jumpTo(target, nextPC)
		}
		return nil

	case INT:
		if in.Ops[0].Kind != OpImm || in.Ops[0].Imm != 0x80 {
			return fmt.Errorf("unsupported interrupt %v", in.Ops[0])
		}
		return m.syscall()

	default:
		return fmt.Errorf("unimplemented mnemonic %s", in.Mn)
	}
}

// syscall dispatches the int $0x80 interface.
func (m *Machine) syscall() error {
	switch m.Regs[EAX] {
	case 1: // exit
		m.Exited = true
		m.ExitStatus = int32(m.Regs[EBX])
		return nil
	case 3: // read
		buf := m.Regs[ECX]
		n := m.Regs[EDX]
		if err := m.checkAddr(buf, int(n), true); err != nil {
			return err
		}
		scratch := make([]byte, n)
		read, err := m.Stdin.Read(scratch)
		m.writeBytes(buf, scratch[:read])
		if err != nil && err != io.EOF {
			return fmt.Errorf("read syscall: %w", err)
		}
		m.Regs[EAX] = uint32(read)
		return nil
	case 4: // write
		buf := m.Regs[ECX]
		n := m.Regs[EDX]
		if err := m.checkAddr(buf, int(n), false); err != nil {
			return err
		}
		out := make([]byte, n)
		m.readBytes(buf, out)
		written, err := m.Stdout.Write(out)
		if err != nil {
			return fmt.Errorf("write syscall: %w", err)
		}
		m.Regs[EAX] = uint32(written)
		return nil
	case 5: // print_int
		s := fmt.Sprintf("%d", int32(m.Regs[EBX]))
		if _, err := io.WriteString(m.Stdout, s); err != nil {
			return fmt.Errorf("print_int syscall: %w", err)
		}
		m.Regs[EAX] = uint32(len(s))
		return nil
	case 6: // read_int
		var v int32
		if _, err := fmt.Fscan(m.Stdin, &v); err != nil {
			return fmt.Errorf("read_int syscall: %w", err)
		}
		m.Regs[EAX] = uint32(v)
		return nil
	case 7: // print_str: write the NUL-terminated string at ebx
		s, err := m.ReadCString(m.Regs[EBX], 1<<16)
		if err != nil {
			return fmt.Errorf("print_str syscall: %w", err)
		}
		if _, err := io.WriteString(m.Stdout, s); err != nil {
			return fmt.Errorf("print_str syscall: %w", err)
		}
		m.Regs[EAX] = uint32(len(s))
		return nil
	case 91: // checked malloc
		m.ensureHeap()
		label := fmt.Sprintf("pc %#x", m.Prog.Instrs[m.PC].Addr)
		addr, err := m.Heap.Malloc(m.Regs[EBX], label)
		if err != nil {
			m.Regs[EAX] = 0 // C malloc failure convention
			return nil
		}
		m.Regs[EAX] = addr
		return nil
	case 92: // checked free
		m.ensureHeap()
		m.Heap.Free(m.Regs[EBX])
		return nil
	case 90: // sbrk
		old := m.brk
		incr := int32(m.Regs[EBX])
		nb := int64(m.brk) + int64(incr)
		if nb < int64(m.Prog.DataBase) || nb >= int64(m.Regs[ESP])-4096 {
			return fmt.Errorf("sbrk: heap break %#x out of range", nb)
		}
		m.brk = uint32(nb)
		m.Regs[EAX] = old
		return nil
	default:
		return fmt.Errorf("unknown syscall %d", m.Regs[EAX])
	}
}

// Run executes until exit or the step budget is exhausted.
func (m *Machine) Run(maxSteps int64) error {
	for i := int64(0); i < maxSteps; i++ {
		if err := m.Step(); err != nil {
			if errors.Is(err, ErrExited) {
				return nil
			}
			return err
		}
		if m.Exited {
			return nil
		}
	}
	return fmt.Errorf("asm: exceeded step budget of %d", maxSteps)
}

// CurrentInstr returns the instruction the PC points at, if any.
func (m *Machine) CurrentInstr() (Instruction, bool) {
	if m.PC < 0 || m.PC >= len(m.Prog.Instrs) {
		return Instruction{}, false
	}
	return m.Prog.Instrs[m.PC], true
}

// ReadCString reads a NUL-terminated string from memory (bounded), for
// debugger and test convenience.
func (m *Machine) ReadCString(addr uint32, max int) (string, error) {
	var out []byte
	for i := 0; i < max; i++ {
		b, err := m.Load8(addr + uint32(i))
		if err != nil {
			return "", err
		}
		if b == 0 {
			return string(out), nil
		}
		out = append(out, b)
	}
	return "", fmt.Errorf("asm: unterminated string at %#x", addr)
}

// ensureHeap lazily creates the checked heap over [current break,
// stack guard), leaving 64 KiB of headroom below the stack.
func (m *Machine) ensureHeap() {
	if m.Heap != nil {
		return
	}
	guard := uint32(m.memSize)
	if guard > 64*1024 {
		guard -= 64 * 1024
	} else {
		guard = guard / 2
	}
	m.heapBase = m.brk
	m.heapLimit = guard
	m.Heap = memcheck.NewHeapRange(m.heapBase, m.heapLimit)
}

// MemcheckReport renders the checked heap's valgrind-style report, or a
// note that the program never used the checked allocator.
func (m *Machine) MemcheckReport() string {
	if m.Heap == nil {
		return "memcheck: program performed no checked allocations\n"
	}
	return m.Heap.Report()
}
