//go:build !race

package hyparview

const raceEnabled = false
