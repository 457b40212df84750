//go:build race

package upcall

func init() { raceEnabled = true }
