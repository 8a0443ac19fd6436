//go:build race

package core

// raceEnabled gates the allocation guards: the race detector instruments
// allocations, so testing.AllocsPerRun counts are meaningless under -race.
const raceEnabled = true
