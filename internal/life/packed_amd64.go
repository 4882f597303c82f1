package life

// The AVX2 vector pass: the scalar kernel's colSum, fullAdd and lifeWord
// algebra on 256-bit registers, four words per instruction
// (packed_amd64.s). The CPU's features choose it once, at package init.

// hasVector reports whether stepPackedSlices runs interior words through
// vectorRun: the CPU has AVX2 and the OS saves the YMM registers.
var hasVector = detectAVX2()

// detectAVX2 checks CPUID leaf 1 ECX for OSXSAVE (bit 27) and AVX (bit
// 28), XCR0 for the XMM and YMM state (bits 1 and 2), and CPUID leaf 7
// EBX for AVX2 (bit 5).
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv executes XGETBV with ECX = 0 and returns XCR0.
func xgetbv() (eax, edx uint32)

// lifeRun4 advances the n words at out from the rows at up, cur and down,
// four at a time, and returns how many cells changed. It reads words -1
// through n of the three rows and writes words 0 through n-1 of out; n is
// a positive multiple of 4.
//
//go:noescape
func lifeRun4(up, cur, down, out *uint64, n int) int64

// vectorRun computes words [w, w+n) of one row's next state into out from
// the up, current and down rows, exactly as stepScalar does for words
// whose west and east neighbor words are in the row, and returns how many
// of their cells changed. n must be a positive multiple of 4. It checks
// every word the assembly touches before it passes pointers: words w-1
// through w+n of each source row and words w through w+n-1 of out.
func vectorRun(up, cur, down, out []uint64, w, n int) int64 {
	if n <= 0 || n&3 != 0 {
		panic("life: vector run length is not a positive multiple of 4")
	}
	_, _, _ = up[w-1], cur[w-1], down[w-1]
	_, _, _, _ = up[w+n], cur[w+n], down[w+n], out[w+n-1]
	raceReadWords(up[w-1 : w+n+1])
	raceReadWords(cur[w-1 : w+n+1])
	raceReadWords(down[w-1 : w+n+1])
	raceWriteWords(out[w : w+n])
	return lifeRun4(&up[w], &cur[w], &down[w], &out[w], n)
}
