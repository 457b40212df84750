//go:build race

package lifecycle_test

func init() { raceEnabled = true }
