package homework

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"cs31/internal/numrep"
)

func TestAllTopicsGenerate(t *testing.T) {
	for _, topic := range Topics() {
		probs, err := Generate(topic, 7, 3)
		if err != nil {
			t.Fatalf("%s: %v", topic, err)
		}
		if len(probs) != 3 {
			t.Fatalf("%s: %d problems", topic, len(probs))
		}
		for i, p := range probs {
			if p.Topic != topic {
				t.Errorf("%s[%d]: topic %q", topic, i, p.Topic)
			}
			if strings.TrimSpace(p.Prompt) == "" || strings.TrimSpace(p.Solution) == "" {
				t.Errorf("%s[%d]: empty prompt or solution", topic, i)
			}
			if !strings.Contains(p.String(), "--- solution ---") {
				t.Errorf("%s[%d]: String() missing solution divider", topic, i)
			}
		}
	}
}

func TestGenerationDeterministic(t *testing.T) {
	for _, topic := range Topics() {
		a, err := Generate(topic, 42, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(topic, 42, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].Prompt != b[i].Prompt || a[i].Solution != b[i].Solution {
				t.Errorf("%s: seed 42 not deterministic", topic)
			}
		}
		c, err := Generate(topic, 43, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a[0].Prompt == c[0].Prompt {
			t.Errorf("%s: different seeds gave identical problems", topic)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate("no-such-topic", 1, 1); err == nil {
		t.Error("unknown topic should fail")
	}
	if _, err := Generate("processes", 1, 0); err == nil {
		t.Error("zero problems should fail")
	}
	// n past MaxProblems is refused before anything is reserved for it:
	// a slice of 1<<60 problems cannot be made, and 1e8 would reserve
	// about 4.8 GB before the first problem is drawn.
	for _, n := range []int{MaxProblems + 1, 100_000_000, 1 << 60} {
		if probs, err := Generate("cache-division", 1, n); err == nil {
			t.Errorf("n = %d accepted (%d problems)", n, len(probs))
		}
	}
	if probs, err := Generate("cache-division", 1, MaxProblems); err != nil || len(probs) != MaxProblems {
		t.Errorf("n = MaxProblems: %d problems, err %v", len(probs), err)
	}
}

// The arithmetic answer key must agree with an independent recomputation.
func TestArithmeticSolutionsVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		p, err := ArithmeticProblem(rng)
		if err != nil {
			t.Fatal(err)
		}
		// Parse "unsigned: N (carry out: ...)" back out and recompute.
		var unsignedVal int
		for _, line := range strings.Split(p.Solution, "\n") {
			if strings.HasPrefix(line, "unsigned: ") {
				numStr := strings.TrimPrefix(line, "unsigned: ")
				numStr = strings.Split(numStr, " ")[0]
				v, err := strconv.Atoi(numStr)
				if err != nil {
					t.Fatalf("bad solution line %q", line)
				}
				unsignedVal = v
			}
		}
		// Recover operands from the prompt's "(Unsigned values A + B; ...)".
		start := strings.Index(p.Prompt, "(Unsigned values ")
		if start < 0 {
			t.Fatalf("prompt format: %q", p.Prompt)
		}
		rest := p.Prompt[start+len("(Unsigned values "):]
		var a, b int
		if _, err := sscanTwo(rest, &a, &b); err != nil {
			t.Fatalf("parse operands from %q: %v", rest, err)
		}
		want := (a + b) % 256
		if unsignedVal != want {
			t.Errorf("solution says %d, expected %d for %d+%d", unsignedVal, want, a, b)
		}
	}
}

func sscanTwo(s string, a, b *int) (int, error) {
	s = strings.ReplaceAll(s, ";", " ")
	fields := strings.Fields(s)
	if len(fields) < 3 {
		return 0, strconv.ErrSyntax
	}
	v1, err := strconv.Atoi(fields[0])
	if err != nil {
		return 0, err
	}
	v2, err := strconv.Atoi(fields[2])
	if err != nil {
		return 0, err
	}
	*a, *b = v1, v2
	return 2, nil
}

// Conversion solutions must round-trip through numrep's parser.
func TestConversionSolutionsVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		p, err := ConversionProblem(rng)
		if err != nil {
			t.Fatal(err)
		}
		// The first solution line is the Conversion string:
		// "bits = 0xhex = U (unsigned) = S (signed, W-bit)".
		line := strings.SplitN(p.Solution, "\n", 2)[0]
		parts := strings.Split(line, " = ")
		if len(parts) < 3 {
			t.Fatalf("solution line %q", line)
		}
		pat, width, err := numrep.ParseBits(parts[0])
		if err != nil {
			t.Fatal(err)
		}
		hexPat, _, err := numrep.ParseHex(parts[1])
		if err != nil {
			t.Fatal(err)
		}
		if pat != hexPat {
			t.Errorf("binary %#x != hex %#x in %q", pat, hexPat, line)
		}
		_ = width
	}
}

// Process problems' enumerated outputs must each contain every printed
// letter exactly once.
func TestProcessSolutionsWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		p, err := ProcessOutputsProblem(rng)
		if err != nil {
			t.Fatal(err)
		}
		colon := strings.Index(p.Solution, ": ")
		if colon < 0 {
			t.Fatalf("solution %q", p.Solution)
		}
		outputs := strings.Split(p.Solution[colon+2:], ", ")
		if len(outputs) < 1 || len(outputs) > 3 {
			t.Errorf("%d outputs in %q", len(outputs), p.Solution)
		}
		for _, o := range outputs {
			if len(o) != 3 {
				t.Errorf("output %q should have exactly 3 letters", o)
			}
		}
	}
}

func TestCacheTraceSolutionHasAllRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, err := CacheTraceProblem(rng)
	if err != nil {
		t.Fatal(err)
	}
	// Header + 8 access rows.
	rows := strings.Split(strings.TrimSpace(p.Solution), "\n")
	if len(rows) != 9 {
		t.Errorf("solution rows = %d:\n%s", len(rows), p.Solution)
	}
}
