//go:build race

package mcamodel

func init() { raceEnabled = true }
