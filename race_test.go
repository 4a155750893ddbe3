//go:build race

package rex

func init() { raceEnabled = true }
