//go:build race

package life

import (
	"runtime"
	"unsafe"
)

// The race detector does not see the assembly's loads and stores, so the
// vector pass reports the words it reads and writes.

func raceReadWords(s []uint64) {
	runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(s)), len(s)*8)
}

func raceWriteWords(s []uint64) {
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(s)), len(s)*8)
}
