//go:build !race

package livenet_test

const raceEnabled = false
