package minic

import (
	"strings"
	"testing"
)

// runC compiles and runs a program, failing the test on any error.
func runC(t *testing.T, src, stdin string) *RunResult {
	t.Helper()
	res, err := Run(src, stdin, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestReturnConstant(t *testing.T) {
	res := runC(t, "int main() { return 42; }", "")
	if res.ExitStatus != 42 {
		t.Errorf("exit = %d", res.ExitStatus)
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want int32
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 - 4 - 3", 3},
		{"17 / 5", 3},
		{"17 % 5", 2},
		{"-17 / 5", -3},
		{"-17 % 5", -2},
		{"1 << 4", 16},
		{"256 >> 3", 32},
		{"-16 >> 2", -4},
		{"6 & 3", 2},
		{"6 | 3", 7},
		{"6 ^ 3", 5},
		{"~0", -1},
		{"-(5)", -5},
		{"!0", 1},
		{"!7", 0},
		{"1 < 2", 1},
		{"2 < 1", 0},
		{"2 <= 2", 1},
		{"3 > 2", 1},
		{"3 >= 4", 0},
		{"5 == 5", 1},
		{"5 != 5", 0},
		{"-1 < 1", 1}, // signed comparison
		{"1 && 2", 1},
		{"1 && 0", 0},
		{"0 || 0", 0},
		{"0 || 3", 1},
		{"sizeof(int)", 4},
		{"sizeof(char)", 1},
		{"sizeof(int*)", 4},
		{"'A'", 65},
		{"'\\n'", 10},
	}
	for _, c := range cases {
		src := "int main() { return " + c.expr + "; }"
		res := runC(t, src, "")
		if res.ExitStatus != c.want {
			t.Errorf("%s = %d, want %d", c.expr, res.ExitStatus, c.want)
		}
	}
}

func TestVariablesAndAssignment(t *testing.T) {
	res := runC(t, `
int main() {
    int x = 10;
    int y;
    y = x * 2;
    x = x + y;
    x += 5;
    x -= 1;
    x *= 2;
    x /= 3;
    return x;
}`, "")
	// x=10,y=20 -> x=30 -> 35 -> 34 -> 68 -> 22
	if res.ExitStatus != 22 {
		t.Errorf("exit = %d", res.ExitStatus)
	}
}

func TestIfElseChains(t *testing.T) {
	src := `
int classify(int x) {
    if (x < 0) { return -1; }
    else if (x == 0) { return 0; }
    else { return 1; }
}
int main() { return classify(%s); }`
	cases := map[string]int32{"-5": -1, "0": 0, "7": 1}
	for arg, want := range cases {
		res := runC(t, strings.Replace(src, "%s", arg, 1), "")
		if res.ExitStatus != want {
			t.Errorf("classify(%s) = %d, want %d", arg, res.ExitStatus, want)
		}
	}
}

func TestWhileLoop(t *testing.T) {
	res := runC(t, `
int main() {
    int sum = 0;
    int i = 1;
    while (i <= 10) {
        sum = sum + i;
        i++;
    }
    return sum;
}`, "")
	if res.ExitStatus != 55 {
		t.Errorf("sum = %d", res.ExitStatus)
	}
}

func TestForLoopWithBreakContinue(t *testing.T) {
	res := runC(t, `
int main() {
    int sum = 0;
    for (int i = 0; i < 100; i++) {
        if (i % 2 == 0) { continue; }
        if (i > 10) { break; }
        sum += i;   // 1+3+5+7+9 = 25
    }
    return sum;
}`, "")
	if res.ExitStatus != 25 {
		t.Errorf("sum = %d", res.ExitStatus)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	res := runC(t, `
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
int main() { return fib(10); }`, "")
	if res.ExitStatus != 55 {
		t.Errorf("fib(10) = %d", res.ExitStatus)
	}
}

func TestMultipleArgs(t *testing.T) {
	res := runC(t, `
int combine(int a, int b, int c, int d) {
    return a * 1000 + b * 100 + c * 10 + d;
}
int main() { return combine(1, 2, 3, 4) % 256; }`, "")
	if res.ExitStatus != 1234%256 {
		t.Errorf("combine = %d", res.ExitStatus)
	}
}

func TestPointers(t *testing.T) {
	res := runC(t, `
void set(int *p, int v) { *p = v; }
int main() {
    int x = 1;
    int *p = &x;
    *p = 5;
    set(p, *p + 2);
    return x;
}`, "")
	if res.ExitStatus != 7 {
		t.Errorf("x = %d", res.ExitStatus)
	}
}

func TestSwapViaPointers(t *testing.T) {
	res := runC(t, `
void swap(int *a, int *b) {
    int tmp = *a;
    *a = *b;
    *b = tmp;
}
int main() {
    int x = 3;
    int y = 4;
    swap(&x, &y);
    return x * 10 + y;   // 43
}`, "")
	if res.ExitStatus != 43 {
		t.Errorf("got %d", res.ExitStatus)
	}
}

func TestLocalArrays(t *testing.T) {
	res := runC(t, `
int main() {
    int a[5];
    for (int i = 0; i < 5; i++) { a[i] = i * i; }
    int sum = 0;
    for (int i = 0; i < 5; i++) { sum += a[i]; }
    return sum;   // 0+1+4+9+16 = 30
}`, "")
	if res.ExitStatus != 30 {
		t.Errorf("sum = %d", res.ExitStatus)
	}
}

func TestArrayDecayToPointer(t *testing.T) {
	res := runC(t, `
int sum(int *a, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { s += a[i]; }
    return s;
}
int main() {
    int a[4];
    a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
    return sum(a, 4);
}`, "")
	if res.ExitStatus != 10 {
		t.Errorf("sum = %d", res.ExitStatus)
	}
}

func TestPointerArithmetic(t *testing.T) {
	res := runC(t, `
int main() {
    int a[4];
    a[0] = 10; a[1] = 20; a[2] = 30; a[3] = 40;
    int *p = a;
    p = p + 2;
    int diff = p - a;    // 2 elements
    return *p + diff;    // 30 + 2
}`, "")
	if res.ExitStatus != 32 {
		t.Errorf("got %d", res.ExitStatus)
	}
}

func TestCharAndStrings(t *testing.T) {
	res := runC(t, `
int strlen(char *s) {
    int n = 0;
    while (s[n] != '\0') { n++; }
    return n;
}
int main() {
    char *msg = "hello";
    return strlen(msg);
}`, "")
	if res.ExitStatus != 5 {
		t.Errorf("strlen = %d", res.ExitStatus)
	}
}

func TestCharArrayWrite(t *testing.T) {
	res := runC(t, `
int main() {
    char buf[8];
    buf[0] = 'h';
    buf[1] = 'i';
    buf[2] = '\0';
    print_str(buf);
    return buf[1];
}`, "")
	if res.Stdout != "hi" {
		t.Errorf("stdout = %q", res.Stdout)
	}
	if res.ExitStatus != 'i' {
		t.Errorf("exit = %d", res.ExitStatus)
	}
}

func TestGlobals(t *testing.T) {
	res := runC(t, `
int counter = 5;
int table[10];
int bump(int by) {
    counter += by;
    return counter;
}
int main() {
    bump(3);
    bump(2);
    table[4] = counter;
    return table[4];
}`, "")
	if res.ExitStatus != 10 {
		t.Errorf("counter = %d", res.ExitStatus)
	}
}

func TestBuiltinsIO(t *testing.T) {
	res := runC(t, `
int main() {
    int x = read_int();
    int y = read_int();
    print_int(x + y);
    print_char('\n');
    print_str("done\n");
    return 0;
}`, "20 22\n")
	if res.Stdout != "42\ndone\n" {
		t.Errorf("stdout = %q", res.Stdout)
	}
}

func TestMalloc(t *testing.T) {
	res := runC(t, `
int main() {
    int *a = malloc(10 * sizeof(int));
    for (int i = 0; i < 10; i++) { a[i] = i; }
    int sum = 0;
    for (int i = 0; i < 10; i++) { sum += a[i]; }
    return sum;
}`, "")
	if res.ExitStatus != 45 {
		t.Errorf("sum = %d", res.ExitStatus)
	}
}

func TestExitBuiltin(t *testing.T) {
	res := runC(t, `
int main() {
    print_str("before");
    exit(3);
    print_str("after");
    return 0;
}`, "")
	if res.ExitStatus != 3 || res.Stdout != "before" {
		t.Errorf("exit=%d stdout=%q", res.ExitStatus, res.Stdout)
	}
}

func TestShortCircuitSideEffects(t *testing.T) {
	res := runC(t, `
int calls = 0;
int bump() { calls++; return 1; }
int main() {
    int a = 0 && bump();   // bump not called
    int b = 1 || bump();   // bump not called
    int c = 1 && bump();   // called
    return calls * 100 + a * 10 + b + c;
}`, "")
	// calls=1, a=0, b=1, c=1 -> 102
	if res.ExitStatus != 102 {
		t.Errorf("got %d", res.ExitStatus)
	}
}

func TestNestedLoopsMatrix(t *testing.T) {
	// The caching exercise's loop nest, in miniature: row-major traversal of
	// a flattened 2D array.
	res := runC(t, `
int main() {
    int m[12];
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 4; j++) {
            m[i * 4 + j] = i + j;
        }
    }
    int sum = 0;
    for (int k = 0; k < 12; k++) { sum += m[k]; }
    return sum;
}`, "")
	// sum over i of sum over j of (i+j) = 3*4*avg = (0..2 each*4) + (0..3 each*3) = 12+18=30
	if res.ExitStatus != 30 {
		t.Errorf("sum = %d", res.ExitStatus)
	}
}

func TestSortingProgram(t *testing.T) {
	// Lab 2 in mini-C: bubble sort.
	res := runC(t, `
void sort(int *a, int n) {
    for (int i = 0; i < n - 1; i++) {
        for (int j = 0; j < n - 1 - i; j++) {
            if (a[j] > a[j + 1]) {
                int t = a[j];
                a[j] = a[j + 1];
                a[j + 1] = t;
            }
        }
    }
}
int main() {
    int a[6];
    a[0] = 5; a[1] = 2; a[2] = 9; a[3] = 1; a[4] = 7; a[5] = 3;
    sort(a, 6);
    for (int i = 0; i < 6; i++) { print_int(a[i]); print_char(' '); }
    return a[0] * 10 + a[5];
}`, "")
	if res.Stdout != "1 2 3 5 7 9 " {
		t.Errorf("stdout = %q", res.Stdout)
	}
	if res.ExitStatus != 19 {
		t.Errorf("exit = %d", res.ExitStatus)
	}
}

func TestVoidFunction(t *testing.T) {
	res := runC(t, `
int g = 0;
void touch() { g = 9; return; }
int main() { touch(); return g; }`, "")
	if res.ExitStatus != 9 {
		t.Errorf("g = %d", res.ExitStatus)
	}
}

func TestTracedRun(t *testing.T) {
	res, err := RunTraced(`
int main() {
    int a[8];
    for (int i = 0; i < 8; i++) { a[i] = i; }
    return a[7];
}`, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitStatus != 7 {
		t.Errorf("exit = %d", res.ExitStatus)
	}
	if len(res.Trace) == 0 {
		t.Error("traced run produced no memory events")
	}
	writes := 0
	for _, e := range res.Trace {
		if e.Write {
			writes++
		}
	}
	if writes < 8 {
		t.Errorf("expected at least 8 writes, got %d", writes)
	}
}

// compileErrorCases are sources Compile must reject; FuzzMinicCompile
// seeds from them too.
var compileErrorCases = []struct{ name, src string }{
	{"no main", "int f() { return 1; }"},
	{"undefined var", "int main() { return x; }"},
	{"undefined func", "int main() { return f(); }"},
	{"arity", "int f(int a) { return a; } int main() { return f(); }"},
	{"dup function", "int f() { return 1; } int f() { return 2; } int main() { return 0; }"},
	{"dup global", "int x; int x; int main() { return 0; }"},
	{"dup local", "int main() { int x; int x; return 0; }"},
	{"void var", "int main() { void v; return 0; }"},
	{"break outside loop", "int main() { break; return 0; }"},
	{"continue outside loop", "int main() { continue; return 0; }"},
	{"assign to literal", "int main() { 3 = 4; return 0; }"},
	{"deref int", "int main() { int x; return *x; }"},
	{"void deref", "int main() { return *malloc(4); }"},
	{"ptr mismatch", "int main() { int x; char *p; p = &x; return 0; }"},
	{"return value from void", "void f() { return 3; } int main() { f(); return 0; }"},
	{"missing return value", "int f() { return; } int main() { return f(); }"},
	{"redefine builtin", "int malloc(int n) { return n; } int main() { return 0; }"},
	{"bad token", "int main() { return @; }"},
	{"unterminated string", `int main() { print_str("abc); return 0; }`},
	{"unterminated comment", "/* int main() { return 0; }"},
	{"array assign", "int main() { int a[3]; int b[3]; a = b; return 0; }"},
	{"index non-pointer", "int main() { int x; return x[0]; }"},
	{"ptr plus ptr", "int main() { int a[2]; int b[2]; return a + b != 0; }"},
	{"negative array len", "int main() { int a[0]; return 0; }"},
	{"global array init", "int a[3] = 5; int main() { return 0; }"},
	{"call non-function var", "int x; int main() { return x(); }"},
	{"non-ascii letter", "int café = 1;"},
}

func TestCompileErrors(t *testing.T) {
	for _, c := range compileErrorCases {
		if _, err := Compile(c.src); err == nil {
			t.Errorf("%s: expected compile error", c.name)
		}
	}
}

func TestCompileErrorHasLine(t *testing.T) {
	_, err := Compile("int main() {\n  return x;\n}")
	ce, ok := err.(*CompileError)
	if !ok {
		t.Fatalf("error type %T: %v", err, err)
	}
	if ce.Line != 2 {
		t.Errorf("line = %d, want 2", ce.Line)
	}
	if !strings.Contains(ce.Error(), "line 2") {
		t.Errorf("message %q", ce.Error())
	}
}

// TestLexNonASCIINamesRune: a non-ASCII letter cannot start or continue
// an identifier, and the error names the character, not its first byte.
func TestLexNonASCIINamesRune(t *testing.T) {
	for src, want := range map[string]string{
		"int café = 1;":  `line 1: unexpected character 'é'`,
		"int x;\nint ñ;": `line 2: unexpected character 'ñ'`,
		"int x\xff;":     "line 1: unexpected character '\ufffd'",
	} {
		_, err := Lex(src)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Lex(%q) = %v, want %q", src, err, want)
		}
	}
}

func TestRuntimeFaults(t *testing.T) {
	cases := []struct{ name, src string }{
		{"null deref", "int main() { int *p; p = 0; return *p; }"},
		{"div by zero", "int main() { int z = 0; return 5 / z; }"},
		{"infinite loop budget", "int main() { while (1) { } return 0; }"},
	}
	for _, c := range cases {
		if _, err := Run(c.src, "", 100000); err == nil {
			t.Errorf("%s: expected runtime error", c.name)
		}
	}
}

func TestNullPointerLiteralAssignment(t *testing.T) {
	// p = 0 should be accepted as the null pointer constant.
	res := runC(t, `
int main() {
    int *p;
    p = 0;
    if (p == 0) { return 1; }
    return 0;
}`, "")
	if res.ExitStatus != 1 {
		t.Errorf("null check = %d", res.ExitStatus)
	}
}

func TestCommentsBothStyles(t *testing.T) {
	res := runC(t, `
// line comment
int main() {
    /* block
       comment */
    return 5; // trailing
}`, "")
	if res.ExitStatus != 5 {
		t.Errorf("exit = %d", res.ExitStatus)
	}
}

func TestGlobalNegativeInit(t *testing.T) {
	res := runC(t, "int g = -7;\nint main() { return -g; }", "")
	if res.ExitStatus != 7 {
		t.Errorf("got %d", res.ExitStatus)
	}
}

func TestCompiledAssemblyIsReadable(t *testing.T) {
	asmSrc, err := Compile("int main() { return 1 + 2; }")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"main:", "pushl %ebp", "movl %esp, %ebp", "leave", "ret"} {
		if !strings.Contains(asmSrc, want) {
			t.Errorf("assembly missing %q:\n%s", want, asmSrc)
		}
	}
}
