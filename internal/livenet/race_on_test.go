//go:build race

package livenet_test

// raceEnabled gates the allocation guard: the race detector instruments
// allocations, so the counts are meaningless under -race.
const raceEnabled = true
