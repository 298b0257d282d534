//go:build !race

package systolic_test

const raceEnabled = false
