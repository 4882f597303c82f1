package asm

// Differential equivalence: the decoded-dispatch path (Step) must be
// bit-for-bit identical to the original switch-ladder interpreter
// (stepReference) — registers, EFLAGS, PC, memory, exit state, and error
// strings — over handcrafted mixed programs and randomly generated ones.

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// diffStates compares every piece of observable machine state.
func diffStates(fast, ref *Machine, compareMem bool) string {
	if fast.Regs != ref.Regs {
		return fmt.Sprintf("registers %v vs %v", fast.Regs, ref.Regs)
	}
	if fast.Flags != ref.Flags {
		return fmt.Sprintf("flags %+v vs %+v", fast.Flags, ref.Flags)
	}
	if fast.PC != ref.PC {
		return fmt.Sprintf("PC %d vs %d", fast.PC, ref.PC)
	}
	if fast.Exited != ref.Exited || fast.ExitStatus != ref.ExitStatus {
		return fmt.Sprintf("exit (%v,%d) vs (%v,%d)",
			fast.Exited, fast.ExitStatus, ref.Exited, ref.ExitStatus)
	}
	if fast.Steps != ref.Steps {
		return fmt.Sprintf("steps %d vs %d", fast.Steps, ref.Steps)
	}
	if !compareMem {
		return ""
	}
	if fastMem, refMem := flatMem(fast), flatMem(ref); !bytes.Equal(fastMem, refMem) {
		for i := range fastMem {
			if fastMem[i] != refMem[i] {
				return fmt.Sprintf("memory differs at %#x: %#x vs %#x", i, fastMem[i], refMem[i])
			}
		}
	}
	return ""
}

// flatMem reads a machine's whole memory through Load8, with tracing and
// memcheck routing suspended so that the read leaves no trace. The NULL
// page, which Load8 refuses and no store can reach, reads as zero.
func flatMem(m *Machine) []byte {
	trace, heap := m.Trace, m.Heap
	m.Trace, m.Heap = nil, nil
	defer func() { m.Trace, m.Heap = trace, heap }()
	mem := make([]byte, m.memSize)
	for addr := 0x1000; addr < len(mem); addr++ {
		mem[addr], _ = m.Load8(uint32(addr))
	}
	return mem
}

// runDifferential locksteps the two interpreters over one program.
func runDifferential(t *testing.T, label, src, stdin string, maxSteps int) {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatalf("%s: assemble: %v", label, err)
	}
	newM := func() (*Machine, *bytes.Buffer) {
		m, err := NewMachineSize(prog, 1<<16)
		if err != nil {
			t.Fatalf("%s: NewMachine: %v", label, err)
		}
		var out bytes.Buffer
		m.Stdin = strings.NewReader(stdin)
		m.Stdout = &out
		return m, &out
	}
	fast, fastOut := newM()
	ref, refOut := newM()
	for step := 0; step < maxSteps; step++ {
		errFast := fast.Step()
		errRef := ref.stepReference()
		if (errFast == nil) != (errRef == nil) ||
			(errFast != nil && errFast.Error() != errRef.Error()) {
			t.Fatalf("%s: step %d: error mismatch: fast=%v ref=%v", label, step, errFast, errRef)
		}
		if d := diffStates(fast, ref, step%16 == 0); d != "" {
			t.Fatalf("%s: step %d: state diverged: %s", label, step, d)
		}
		if errFast != nil || fast.Exited {
			break
		}
	}
	if d := diffStates(fast, ref, true); d != "" {
		t.Fatalf("%s: final state diverged: %s", label, d)
	}
	if !bytes.Equal(fastOut.Bytes(), refOut.Bytes()) {
		t.Fatalf("%s: stdout diverged: %q vs %q", label, fastOut.Bytes(), refOut.Bytes())
	}
}

func TestDecodedDispatchMatchesReference(t *testing.T) {
	cases := []struct {
		label, src, stdin string
	}{
		{"arith-loop", `
main:
    movl $0, %eax
    movl $7, %ebx
    movl $50, %ecx
loop:
    addl %ebx, %eax
    imull $3, %ebx
    andl $0x7fffffff, %ebx
    subl $1, %ecx
    cmpl $0, %ecx
    jne loop
    ret
`, ""},
		{"call-stack-memory", `
main:
    pushl %ebp
    movl %esp, %ebp
    movl $12, %eax
    pushl %eax
    call square
    addl $4, %esp
    movl %eax, 0x8000
    movl 0x8000, %ebx
    leave
    ret
square:
    pushl %ebp
    movl %esp, %ebp
    movl 8(%ebp), %eax
    imull %eax, %eax
    leave
    ret
`, ""},
		{"flags-and-jumps", `
main:
    movl $-5, %eax
    cmpl $3, %eax
    jl below
    movl $0, %ebx
    jmp done
below:
    movl $1, %ebx
    negl %eax
    incl %eax
    decl %eax
    notl %eax
    sall $2, %eax
    sarl $1, %eax
    shrl $1, %eax
    testl %eax, %eax
    js done
    orl $0x10, %ebx
    xorl %ecx, %ecx
done:
    ret
`, ""},
		{"lea-indexed", `
main:
    movl $0x8000, %ebx
    movl $3, %ecx
    leal 8(%ebx,%ecx,4), %edx
    movl $77, (%ebx,%ecx,4)
    movl (%ebx,%ecx,4), %eax
    movb $65, 2(%ebx)
    movzbl 2(%ebx), %esi
    movsbl 2(%ebx), %edi
    ret
`, ""},
		{"division-and-syscalls", `
main:
    movl $100, %eax
    cltd
    movl $7, %ebx
    idivl %ebx
    movl %eax, %ebx
    movl $5, %eax
    int $0x80
    movl $6, %eax
    int $0x80
    movl $1, %eax
    movl $0, %ebx
    int $0x80
`, "42\n"},
		{"faulting-load", `
main:
    movl $0, %ebx
    movl (%ebx), %eax
    ret
`, ""},
		{"bad-jump-target", `
main:
    movl $0x2, %eax
    jmp *%eax
`, ""},
		{"divide-by-zero", `
main:
    movl $9, %eax
    cltd
    movl $0, %ebx
    idivl %ebx
    ret
`, ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.label, func(t *testing.T) {
			runDifferential(t, tc.label, tc.src, tc.stdin, 5000)
		})
	}
}

// TestDecodedDispatchMatchesReferenceRandom locksteps the interpreters over
// the same random program population the robustness test uses, so faults
// (segfaults, wild jumps, overflow) are compared too.
func TestDecodedDispatchMatchesReferenceRandom(t *testing.T) {
	mnems := []Mnemonic{
		MOVL, MOVB, MOVZBL, MOVSBL, LEAL, ADDL, SUBL, IMULL, IDIVL, CLTD,
		ANDL, ORL, XORL, NOTL, NEGL, INCL, DECL, SALL, SARL, SHRL, CMPL,
		TESTL, PUSHL, POPL, RET, LEAVE, NOP, INT,
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var src strings.Builder
		src.WriteString("main:\n")
		for i := 0; i < 30; i++ {
			mn := mnems[rng.Intn(len(mnems))]
			src.WriteString("    " + mn.String())
			n := operandCounts[mn]
			for j := 0; j < n; j++ {
				op := randomOperand(rng)
				if j == n-1 && op.Kind == OpImm && writesLastOperand(mn) {
					op = Reg(Register(rng.Intn(int(NumRegisters))))
				}
				if mn == INT {
					op = Imm(0x80)
				}
				if j == 0 {
					src.WriteString(" " + op.String())
				} else {
					src.WriteString(", " + op.String())
				}
			}
			src.WriteByte('\n')
		}
		src.WriteString("    ret\n")
		prog, err := Assemble(src.String())
		if err != nil {
			continue
		}
		if _, err := NewMachine(prog); err != nil {
			continue
		}
		runDifferential(t, fmt.Sprintf("seed-%d", seed), src.String(), "42 7 xyz", 2000)
	}
}
