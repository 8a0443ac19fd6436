//go:build race

package hyparview

// raceEnabled gates the allocation guards: the race detector instruments
// allocations, so testing.AllocsPerRun counts are meaningless under -race.
const raceEnabled = true
