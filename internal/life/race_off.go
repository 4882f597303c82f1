//go:build !race

package life

func raceReadWords([]uint64)  {}
func raceWriteWords([]uint64) {}
