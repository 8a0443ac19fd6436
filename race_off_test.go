//go:build !race

package brisa_test

const raceEnabled = false
