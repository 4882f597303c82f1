package asm

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return p
}

func TestAssembleBasicForms(t *testing.T) {
	p := mustAssemble(t, `
main:
    movl $5, %eax          # immediate to register
    movl %eax, %ebx        # register to register
    movl 8(%ebp), %ecx     # displacement
    movl (%eax,%ebx,4), %edx
    movl (%esi), %edi
    leal -12(%ebp), %eax
    addl $1, %eax
    ret
`)
	if len(p.Instrs) != 8 {
		t.Fatalf("got %d instructions", len(p.Instrs))
	}
	in := p.Instrs[3]
	if in.Mn != MOVL || in.Ops[0].Kind != OpMem || in.Ops[0].Base != EAX ||
		in.Ops[0].Index != EBX || in.Ops[0].Scale != 4 {
		t.Errorf("instr 3 = %+v", in)
	}
	if p.Entry != p.TextBase {
		t.Errorf("entry %#x, want %#x", p.Entry, p.TextBase)
	}
}

func TestAssembleLabelsAndJumps(t *testing.T) {
	p := mustAssemble(t, `
    movl $10, %ecx
loop:
    decl %ecx
    cmpl $0, %ecx
    jne loop
    jmp done
done:
    ret
`)
	jne := p.Instrs[3]
	if jne.Mn != JNE || jne.Ops[0].Kind != OpLabel {
		t.Fatalf("jne = %+v", jne)
	}
	loopAddr := p.Symbols["loop"]
	if uint32(jne.Ops[0].Imm) != loopAddr {
		t.Errorf("jne target %#x, want %#x", jne.Ops[0].Imm, loopAddr)
	}
	if _, ok := p.Symbols["done"]; !ok {
		t.Error("done label missing")
	}
}

func TestAssembleDataSection(t *testing.T) {
	p := mustAssemble(t, `
.data
counter: .long 42
pair:    .long 1, 2
msg:     .asciz "hi"
buf:     .space 8
bytes:   .byte 1, 255, -1
.text
main:
    movl counter, %eax
    movl $msg, %ebx
    ret
`)
	if got := p.Symbols["counter"]; got != p.DataBase {
		t.Errorf("counter at %#x, want %#x", got, p.DataBase)
	}
	if got := p.Symbols["pair"]; got != p.DataBase+4 {
		t.Errorf("pair at %#x", got)
	}
	// 4 + 8 longs, "hi\0" = 3, space 8, bytes 3 = 26 bytes.
	if len(p.Data) != 26 {
		t.Errorf("data length %d, want 26", len(p.Data))
	}
	if p.Data[0] != 42 {
		t.Errorf("counter initial value %d", p.Data[0])
	}
	if string(p.Data[12:14]) != "hi" || p.Data[14] != 0 {
		t.Errorf("msg bytes: %q", p.Data[12:15])
	}
	if p.Data[23] != 1 || p.Data[24] != 255 || p.Data[25] != 255 {
		t.Errorf("byte values: %v", p.Data[23:26])
	}
	// movl counter, %eax resolves the direct memory reference.
	mov := p.Instrs[0]
	if mov.Ops[0].Kind != OpMem || uint32(mov.Ops[0].Disp) != p.DataBase {
		t.Errorf("direct ref: %+v", mov.Ops[0])
	}
	// $msg resolves to the data address as an immediate.
	movImm := p.Instrs[1]
	if movImm.Ops[0].Kind != OpImm || uint32(movImm.Ops[0].Imm) != p.Symbols["msg"] {
		t.Errorf("$msg: %+v", movImm.Ops[0])
	}
	if p.Entry != p.Symbols["main"] {
		t.Errorf("entry %#x, want main %#x", p.Entry, p.Symbols["main"])
	}
}

func TestAssembleAliases(t *testing.T) {
	p := mustAssemble(t, `
    mov $1, %eax
    add $2, %eax
    cdq
    shl $1, %eax
    jz out
out:
    nop
`)
	wants := []Mnemonic{MOVL, ADDL, CLTD, SALL, JE, NOP}
	for i, w := range wants {
		if p.Instrs[i].Mn != w {
			t.Errorf("instr %d: %v, want %v", i, p.Instrs[i].Mn, w)
		}
	}
}

func TestMnemonicByName(t *testing.T) {
	for i, name := range mnNames {
		if mn, ok := MnemonicByName(name); !ok || mn != Mnemonic(i) {
			t.Errorf("MnemonicByName(%q) = %v, %v; want %v", name, mn, ok, Mnemonic(i))
		}
	}
	aliases := map[string]Mnemonic{
		"mov": MOVL, "add": ADDL, "sub": SUBL, "imul": IMULL,
		"idiv": IDIVL, "cdq": CLTD, "and": ANDL, "or": ORL,
		"xor": XORL, "not": NOTL, "neg": NEGL, "inc": INCL,
		"dec": DECL, "sal": SALL, "shl": SALL, "shll": SALL,
		"sar": SARL, "shr": SHRL, "cmp": CMPL, "test": TESTL,
		"push": PUSHL, "pop": POPL, "lea": LEAL, "jz": JE,
		"jnz": JNE, "jnge": JL, "jng": JLE, "jnle": JG,
		"jnl": JGE, "jc": JB, "jnae": JB, "jna": JBE,
		"jnbe": JA, "jnb": JAE, "jnc": JAE,
	}
	for name, want := range aliases {
		if mn, ok := MnemonicByName(name); !ok || mn != want {
			t.Errorf("MnemonicByName(%q) = %v, %v; want %v", name, mn, ok, want)
		}
	}
	if len(mnAliases) != len(aliases) {
		t.Errorf("%d aliases, want %d", len(mnAliases), len(aliases))
	}
	for _, name := range []string{"", "frobnicate", "MOVL", "movq", "movll", "jmpl"} {
		if mn, ok := MnemonicByName(name); ok {
			t.Errorf("MnemonicByName(%q) = %v, want no match", name, mn)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"unknown instruction", "frobnicate %eax"},
		{"bad register", "movl %foo, %eax"},
		{"wrong operand count", "movl %eax"},
		{"undefined symbol", "jmp nowhere"},
		{"duplicate label", "x:\nx:\n ret"},
		{"bad immediate", "movl $xyz!, %eax"},
		{"instruction in data", ".data\nmovl $1, %eax"},
		{"unknown directive", ".frob 1"},
		{"bad scale", "movl (%eax,%ebx,3), %ecx"},
		{"long outside data", ".long 5"},
		{"bad byte", ".data\n.byte 300"},
		{"bad string", ".data\n.asciz hi"},
		{"bad space", ".data\n.space -1"},
		{"empty operand", "movl , %eax"},
		{"bad displacement", "movl a!b(%eax), %ebx"},
		{"too many mem parts", "movl (%eax,%ebx,4,5), %ecx"},
		{"empty mem", "movl (), %eax"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src); err == nil {
			t.Errorf("%s: expected error for %q", c.name, c.src)
		}
	}
}

func TestSyntaxErrorHasLine(t *testing.T) {
	_, err := Assemble("nop\nbogus %eax\n")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Line != 2 {
		t.Errorf("line %d, want 2", se.Line)
	}
	if !strings.Contains(se.Error(), "line 2") {
		t.Errorf("message %q", se.Error())
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
main:
    pushl %ebp
    movl %esp, %ebp
    movl 8(%ebp), %eax
    addl $5, %eax
    cmpl $10, %eax
    jle small
    movl $0, %eax
small:
    leave
    ret
`
	p := mustAssemble(t, src)
	dis := p.Disassemble()
	if !strings.Contains(dis, "<main>:") {
		t.Errorf("disassembly missing main label:\n%s", dis)
	}
	// Reassembling the instruction listing (with label lines re-inserted at
	// their addresses) must produce the same instruction sequence.
	byAddr := make(map[uint32][]string)
	for name, addr := range p.Symbols {
		byAddr[addr] = append(byAddr[addr], name)
	}
	var re strings.Builder
	for i, in := range p.Instrs {
		for _, l := range byAddr[p.TextBase+uint32(i)*InstrBytes] {
			re.WriteString(l + ":\n")
		}
		re.WriteString(in.String())
		re.WriteByte('\n')
	}
	p2, err := Assemble(re.String())
	if err != nil {
		t.Fatalf("reassemble: %v", err)
	}
	if len(p2.Instrs) != len(p.Instrs) {
		t.Fatalf("instruction count changed: %d vs %d", len(p2.Instrs), len(p.Instrs))
	}
	for i := range p.Instrs {
		if p.Instrs[i].String() != p2.Instrs[i].String() {
			t.Errorf("instr %d: %q vs %q", i, p.Instrs[i].String(), p2.Instrs[i].String())
		}
	}
}

// Property: formatting and reparsing a random register-form instruction
// preserves it.
func TestInstrFormatParseProperty(t *testing.T) {
	mnems := []Mnemonic{MOVL, ADDL, SUBL, ANDL, ORL, XORL, CMPL, TESTL, IMULL}
	f := func(mnRaw, srcReg, dstReg uint8, imm int32, useImm bool) bool {
		mn := mnems[int(mnRaw)%len(mnems)]
		var src Operand
		if useImm {
			src = Imm(imm)
		} else {
			src = Reg(Register(srcReg % 8))
		}
		in := Instruction{Mn: mn, Ops: []Operand{src, Reg(Register(dstReg % 8))}}
		p, err := Assemble(in.String())
		if err != nil {
			return false
		}
		return len(p.Instrs) == 1 && p.Instrs[0].String() == in.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOperandStrings(t *testing.T) {
	cases := []struct {
		op   Operand
		want string
	}{
		{Imm(-5), "$-5"},
		{Reg(EAX), "%eax"},
		{Mem(8, EBP, NoReg, 1), "8(%ebp)"},
		{Mem(0, EAX, EBX, 4), "(%eax,%ebx,4)"},
		{Mem(-4, EBP, NoReg, 1), "-4(%ebp)"},
		{Mem(0x2000, NoReg, NoReg, 1), "0x2000"},
		{Label("foo"), "foo"},
		{Operand{}, "<none>"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("operand %+v = %q, want %q", c.op, got, c.want)
		}
	}
	if NoReg.String() != "%none" || Register(12).String() != "%reg(12)" {
		t.Error("register name edge cases")
	}
	if Mnemonic(99).String() != "mnemonic(99)" {
		t.Error("mnemonic edge case")
	}
}

func TestInstrAt(t *testing.T) {
	p := mustAssemble(t, "nop\nnop\nret")
	if idx, err := p.InstrAt(p.TextBase + 4); err != nil || idx != 1 {
		t.Errorf("InstrAt: %d, %v", idx, err)
	}
	if _, err := p.InstrAt(p.TextBase + 2); err == nil {
		t.Error("unaligned address should fail")
	}
	if _, err := p.InstrAt(p.TextEnd()); err == nil {
		t.Error("past-end address should fail")
	}
}

func TestCommentsAndColonInString(t *testing.T) {
	p := mustAssemble(t, `
.data
msg: .asciz "a:b # not a comment"
.text
    ret # trailing comment
`)
	want := "a:b # not a comment"
	if got := string(p.Data[:len(want)]); got != want {
		t.Errorf("string data %q, want %q", got, want)
	}
	if p.Data[len(want)] != 0 {
		t.Error("asciz should NUL-terminate")
	}
	if len(p.Instrs) != 1 || p.Instrs[0].Mn != RET {
		t.Errorf("instrs: %v", p.Instrs)
	}
}
