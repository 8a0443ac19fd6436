//go:build race

package brisa_test

// raceEnabled gates the memory guard: the race detector's shadow state
// inflates every heap figure, so a bytes-per-node budget means nothing
// under -race.
const raceEnabled = true
