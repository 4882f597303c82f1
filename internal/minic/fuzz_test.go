package minic

import (
	"fmt"
	"testing"
	"time"
)

// fuzzSteps is the step budget FuzzMinicCompile runs accepted programs
// with: enough for the seed programs, small enough that an endless loop
// costs microseconds.
const fuzzSteps = 5000

// FuzzMinicCompile feeds arbitrary source to the compiler, as labd's
// /v1/minic/compile does with every request body. Compile must return
// without panicking, and a program it accepts must run to its exit or an
// error within the step budget it is given. A Compile that never returns
// fails through the watchdog's panic, which names the input.
func FuzzMinicCompile(f *testing.F) {
	for _, c := range compileErrorCases {
		f.Add(c.src)
	}
	for _, src := range []string{
		"int main() { return 42; }",
		"int fib(int n) {\n    if (n < 2) { return n; }\n    return fib(n - 1) + fib(n - 2);\n}\nint main() { return fib(10); }",
		"void set(int *p, int v) { *p = v; }\nint main() {\n    int x = 1;\n    int *p = &x;\n    set(p, *p + 2);\n    return x;\n}",
		"int main() {\n    int x = read_int();\n    int y = read_int();\n    print_int(x + y);\n    print_char('\\n');\n    print_str(\"done\\n\");\n    return 0;\n}",
		"int main() {\n    int *a = malloc(10 * sizeof(int));\n    for (int i = 0; i < 10; i++) { a[i] = i; }\n    int sum = 0;\n    for (int i = 0; i < 10; i++) { sum += a[i]; }\n    return sum;\n}",
		"int calls = 0;\nint bump() { calls++; return 1; }\nint main() {\n    int a = 0 && bump();\n    int b = 1 || bump();\n    return calls * 100 + a * 10 + b;\n}",
		"int main() { while (1) { } return 0; } /* é */",
		"int main() { print_str(\"café\"); return 0; } // ñ",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		watchdog := time.AfterFunc(10*time.Second, func() {
			panic(fmt.Sprintf("FuzzMinicCompile: %q still running after 10s", src))
		})
		defer watchdog.Stop()
		if _, err := Compile(src); err != nil {
			return
		}
		res, err := Run(src, "42 7", fuzzSteps)
		if err == nil && res.Steps > fuzzSteps {
			t.Fatalf("ran %d steps on a budget of %d", res.Steps, fuzzSteps)
		}
	})
}
