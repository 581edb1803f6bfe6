//go:build race

package service

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops a quarter of its Puts at random.
const raceEnabled = true
