package labd

import "testing"

// TestAsmResponsesGolden pins the asm and mini-C endpoints' status and body
// bytes for programs whose output depends on the machine's memory layout:
// the initial stack pointer at the top of the 1 MiB address space, the
// data-segment image, read/write syscalls over a buffer that crosses a
// 4 KiB page boundary, the NULL-page and text-segment faults, and a heap
// range derived from the memory size.
func TestAsmResponsesGolden(t *testing.T) {
	cases := []struct {
		name   string
		path   string
		body   any
		status int
		want   string
	}{
		{
			name: "esp-at-top-of-memory",
			path: "/v1/asm/run",
			body: AsmRunRequest{Source: `
main:
    movl %esp, %ebx
    movl $5, %eax
    int $0x80
    movl $0, %ebx
    movl $1, %eax
    int $0x80
`},
			status: 200,
			want: `{
  "exit_status": 0,
  "stdout": "1048572",
  "steps": 6
}
`,
		},
		{
			name: "data-read-and-rewrite",
			path: "/v1/asm/run",
			body: AsmRunRequest{Source: `
.data
counter: .long 42
msg:     .asciz "hi there"
.text
main:
    movl counter, %eax
    addl $8, %eax
    movl %eax, counter
    movl counter, %ebx
    movl $5, %eax
    int $0x80
    movl $msg, %ebx
    movb $72, (%ebx)
    movb $73, 1(%ebx)
    movl $7, %eax
    int $0x80
    movzbl msg, %ebx
    movl $1, %eax
    int $0x80
`},
			status: 200,
			want: `{
  "exit_status": 72,
  "stdout": "50HI there",
  "steps": 14
}
`,
		},
		{
			name: "read-write-echo-across-page",
			path: "/v1/asm/run",
			body: AsmRunRequest{Source: `
main:
    movl $3, %eax
    movl $0, %ebx
    movl $0x10ff8, %ecx
    movl $64, %edx
    int $0x80
    movl %eax, %edx
    movl $4, %eax
    movl $1, %ebx
    movl $0x10ff8, %ecx
    int $0x80
    movl 0x10ffc, %ebx
    movl $1, %eax
    int $0x80
`, Stdin: "paged memory, one page at a time\n"},
			status: 200,
			want: `{
  "exit_status": 1701650532,
  "stdout": "paged memory, one page at a time\n",
  "steps": 13
}
`,
		},
		{
			name: "null-page-store",
			path: "/v1/asm/run",
			body: AsmRunRequest{Source: `
main:
    movl $0, %ebx
    movl $1, (%ebx)
    ret
`},
			status: 400,
			want: `{
  "error": "asm: 0x1004 (movl $1, (%ebx), line 4): asm: segmentation fault: write at 0x0 (NULL page)"
}
`,
		},
		{
			name: "text-segment-store",
			path: "/v1/asm/run",
			body: AsmRunRequest{Source: `
main:
    movl $7, 0x1004
    ret
`},
			status: 400,
			want: `{
  "error": "asm: 0x1000 (movl $7, 0x1004, line 3): asm: segmentation fault: write at 0x1004 (text segment is read-only)"
}
`,
		},
		{
			// The checked heap spans the data segment's end to 64 KiB
			// below the top of memory: 900000 bytes fit, 100000 more
			// do not, and the program exits 1.
			name: "minic-malloc-free",
			path: "/v1/minic/compile",
			body: MinicCompileRequest{Run: true, Source: `
int main() {
    int *a = malloc(900000);
    int *b = malloc(100000);
    a[224999] = 7;
    print_int(a[224999]);
    free(a);
    if (b == 0) { return 1; }
    free(b);
    return 2;
}
`},
			status: 200,
			want: `{
  "assembly": ".data\n__char_buf: .byte 0\n.text\nmain:\n    pushl %ebp\n    movl %esp, %ebp\n    subl $8, %esp\n    movl $900000, %eax\n    movl %eax, %ebx\n    movl $91, %eax\n    int $0x80\n    movl %eax, -4(%ebp)\n    movl $100000, %eax\n    movl %eax, %ebx\n    movl $91, %eax\n    int $0x80\n    movl %eax, -8(%ebp)\n    movl -4(%ebp), %eax\n    pushl %eax\n    movl $224999, %eax\n    imull $4, %eax\n    movl %eax, %ebx\n    popl %eax\n    addl %ebx, %eax\n    pushl %eax\n    movl $7, %eax\n    popl %ebx\n    movl %eax, (%ebx)\n    movl -4(%ebp), %eax\n    pushl %eax\n    movl $224999, %eax\n    imull $4, %eax\n    movl %eax, %ebx\n    popl %eax\n    addl %ebx, %eax\n    movl (%eax), %eax\n    movl %eax, %ebx\n    movl $5, %eax\n    int $0x80\n    movl -4(%ebp), %eax\n    movl %eax, %ebx\n    movl $92, %eax\n    int $0x80\n    movl -8(%ebp), %eax\n    pushl %eax\n    movl $0, %eax\n    movl %eax, %ebx\n    popl %eax\n    cmpl %ebx, %eax\n    movl $1, %eax\n    je .Lcmp4\n    movl $0, %eax\n.Lcmp4:\n    cmpl $0, %eax\n    je .Lelse2\n    movl $1, %eax\n    jmp .Lret_main1\n    jmp .Lendif3\n.Lelse2:\n.Lendif3:\n    movl -8(%ebp), %eax\n    movl %eax, %ebx\n    movl $92, %eax\n    int $0x80\n    movl $2, %eax\n    jmp .Lret_main1\n    movl $0, %eax\n.Lret_main1:\n    leave\n    ret\n",
  "exit_status": 1,
  "stdout": "7",
  "steps": 53
}
`,
		},
	}
	_, ts := newTestServer(t, Config{})
	for _, tc := range cases {
		resp, raw := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status || string(raw) != tc.want {
			t.Errorf("%s: got %d %q\nwant %d %q", tc.name, resp.StatusCode, raw, tc.status, tc.want)
		}
	}
}
