// Package asm implements the IA-32 subset CS 31 teaches: an AT&T-syntax
// assembler, a 32-bit machine that executes assembled programs with full
// stack/call/return semantics and EFLAGS condition codes, and a
// disassembler. It is the substrate for Lab 4 (writing assembly), Lab 5
// (the binary maze, traced with the debug package), and the target of the
// minic compiler — together they form the course's vertical slice from C
// down to instruction execution.
//
// Instructions occupy four bytes of synthetic address space each, so call
// and ret push and pop meaningful return addresses; the byte encoding
// itself is provided by Assemble/LoadImage round-tripping through package
// encoding semantics rather than real x86 machine code.
package asm

import (
	"fmt"
	"sync"
)

// Register identifies one of the eight 32-bit general-purpose registers.
type Register int

// The IA-32 general-purpose register file.
const (
	EAX Register = iota
	EBX
	ECX
	EDX
	ESI
	EDI
	EBP
	ESP
	NumRegisters
	NoReg Register = -1
)

var regNames = [...]string{"eax", "ebx", "ecx", "edx", "esi", "edi", "ebp", "esp"}

func (r Register) String() string {
	if r >= 0 && int(r) < len(regNames) {
		return "%" + regNames[r]
	}
	if r == NoReg {
		return "%none"
	}
	return fmt.Sprintf("%%reg(%d)", int(r))
}

// RegisterByName resolves a register name without the % sigil ("eax").
func RegisterByName(name string) (Register, bool) {
	for i, n := range regNames {
		if n == name {
			return Register(i), true
		}
	}
	return NoReg, false
}

// Mnemonic identifies an instruction operation.
type Mnemonic int

// The instruction set: the IA-32 subset used by the course's C examples.
const (
	MOVL Mnemonic = iota
	MOVB
	MOVZBL // move byte, zero-extend to long
	MOVSBL // move byte, sign-extend to long
	LEAL
	ADDL
	SUBL
	IMULL
	IDIVL // edx:eax / op -> eax quotient, edx remainder
	CLTD  // sign-extend eax into edx (a.k.a. cdq)
	ANDL
	ORL
	XORL
	NOTL
	NEGL
	INCL
	DECL
	SALL
	SARL
	SHRL
	CMPL
	TESTL
	PUSHL
	POPL
	CALL
	RET
	LEAVE
	JMP
	JE
	JNE
	JL
	JLE
	JG
	JGE
	JB
	JBE
	JA
	JAE
	JS
	JNS
	NOP
	INT // int $0x80: the course's syscall interface
	numMnemonics
)

var mnNames = [...]string{
	"movl", "movb", "movzbl", "movsbl", "leal", "addl", "subl", "imull",
	"idivl", "cltd", "andl", "orl", "xorl", "notl", "negl", "incl", "decl",
	"sall", "sarl", "shrl", "cmpl", "testl", "pushl", "popl", "call", "ret",
	"leave", "jmp", "je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe",
	"ja", "jae", "js", "jns", "nop", "int",
}

func (m Mnemonic) String() string {
	if m >= 0 && int(m) < len(mnNames) {
		return mnNames[m]
	}
	return fmt.Sprintf("mnemonic(%d)", int(m))
}

// mnAliases maps the common suffix-free aliases the book uses
// interchangeably (mov, add, cdq, ...) to their canonical names.
var mnAliases = map[string]string{
	"mov": "movl", "add": "addl", "sub": "subl", "imul": "imull",
	"idiv": "idivl", "cdq": "cltd", "and": "andl", "or": "orl",
	"xor": "xorl", "not": "notl", "neg": "negl", "inc": "incl",
	"dec": "decl", "sal": "sall", "shl": "sall", "shll": "sall",
	"sar": "sarl", "shr": "shrl", "cmp": "cmpl", "test": "testl",
	"push": "pushl", "pop": "popl", "lea": "leal", "jz": "je",
	"jnz": "jne", "jnge": "jl", "jng": "jle", "jnle": "jg",
	"jnl": "jge", "jc": "jb", "jnae": "jb", "jna": "jbe",
	"jnbe": "ja", "jnb": "jae", "jnc": "jae",
}

// MnemonicByName resolves an instruction name, accepting the aliases in
// mnAliases.
func MnemonicByName(name string) (Mnemonic, bool) {
	if canon, ok := mnAliases[name]; ok {
		name = canon
	}
	for i, n := range mnNames {
		if n == name {
			return Mnemonic(i), true
		}
	}
	return 0, false
}

// OperandKind discriminates Operand forms.
type OperandKind int

// Operand forms in AT&T syntax.
const (
	OpNone  OperandKind = iota
	OpImm               // $imm
	OpReg               // %reg
	OpMem               // disp(base,index,scale) or a bare symbol/address
	OpLabel             // jump/call target; resolved to an address at assembly
)

// Operand is one instruction operand. AT&T operand order is source first,
// destination last.
type Operand struct {
	Kind  OperandKind
	Imm   int32    // OpImm value, or resolved OpLabel address
	Reg   Register // OpReg register
	Disp  int32    // OpMem displacement
	Base  Register // OpMem base register (NoReg if absent)
	Index Register // OpMem index register (NoReg if absent)
	Scale int32    // OpMem scale: 1, 2, 4, or 8
	Sym   string   // symbol name for display (labels, data refs)
}

// Imm returns an immediate operand.
func Imm(v int32) Operand { return Operand{Kind: OpImm, Imm: v} }

// Reg returns a register operand.
func Reg(r Register) Operand { return Operand{Kind: OpReg, Reg: r} }

// Mem returns a memory operand disp(base,index,scale).
func Mem(disp int32, base, index Register, scale int32) Operand {
	if scale == 0 {
		scale = 1
	}
	return Operand{Kind: OpMem, Disp: disp, Base: base, Index: index, Scale: scale}
}

// Label returns an unresolved label operand for jumps and calls.
func Label(name string) Operand { return Operand{Kind: OpLabel, Sym: name} }

// String renders the operand in AT&T syntax.
func (o Operand) String() string {
	switch o.Kind {
	case OpImm:
		return fmt.Sprintf("$%d", o.Imm)
	case OpReg:
		return o.Reg.String()
	case OpLabel:
		if o.Sym != "" {
			return o.Sym
		}
		return fmt.Sprintf("0x%x", uint32(o.Imm))
	case OpMem:
		if o.Base == NoReg && o.Index == NoReg {
			if o.Sym != "" {
				return o.Sym
			}
			return fmt.Sprintf("0x%x", uint32(o.Disp))
		}
		s := ""
		if o.Disp != 0 {
			s = fmt.Sprintf("%d", o.Disp)
		}
		s += "("
		if o.Base != NoReg {
			s += o.Base.String()
		}
		if o.Index != NoReg {
			s += "," + o.Index.String()
			if o.Scale != 1 {
				s += fmt.Sprintf(",%d", o.Scale)
			}
		}
		return s + ")"
	default:
		return "<none>"
	}
}

// Instruction is one decoded instruction with its source position.
type Instruction struct {
	Mn   Mnemonic
	Ops  []Operand
	Addr uint32 // synthetic text address
	Line int    // 1-based source line, 0 if synthesized
}

// String renders the instruction in AT&T syntax — the disassembler students
// compare against GDB output.
func (in Instruction) String() string {
	s := in.Mn.String()
	for i, op := range in.Ops {
		if i == 0 {
			s += " " + op.String()
		} else {
			s += ", " + op.String()
		}
	}
	return s
}

// InstrBytes is the synthetic size of every instruction in address space.
const InstrBytes = 4

// Program is an assembled unit: instructions at TextBase, an initial data
// image at DataBase, and the symbol table.
type Program struct {
	Instrs   []Instruction
	Data     []byte
	Symbols  map[string]uint32
	TextBase uint32
	DataBase uint32
	Entry    uint32 // address of the entry point (main if defined, else first instruction)

	// exec is the decoded-dispatch form of Instrs, built once on first
	// execution and shared by every Machine running this program.
	execOnce sync.Once
	exec     []execFn
}

// TextEnd returns the first address past the text segment.
func (p *Program) TextEnd() uint32 {
	return p.TextBase + uint32(len(p.Instrs))*InstrBytes
}

// InstrAt maps a text address to its instruction index.
func (p *Program) InstrAt(addr uint32) (int, error) {
	if addr < p.TextBase || addr >= p.TextEnd() || (addr-p.TextBase)%InstrBytes != 0 {
		return 0, fmt.Errorf("asm: address %#x is not an instruction boundary", addr)
	}
	return int(addr-p.TextBase) / InstrBytes, nil
}

// Disassemble renders the whole text segment with addresses and labels,
// in the format students see in GDB.
func (p *Program) Disassemble() string {
	// Invert the symbol table for text addresses.
	labels := make(map[uint32][]string)
	for name, addr := range p.Symbols {
		if addr >= p.TextBase && addr < p.TextEnd() {
			labels[addr] = append(labels[addr], name)
		}
	}
	var s string
	for i, in := range p.Instrs {
		addr := p.TextBase + uint32(i)*InstrBytes
		for _, l := range labels[addr] {
			s += fmt.Sprintf("%08x <%s>:\n", addr, l)
		}
		s += fmt.Sprintf("  %08x:\t%s\n", addr, in.String())
	}
	return s
}
