//go:build !race

package qserv

// raceAllocFactor scales TestQueryAllocBudget's ceilings; see race_test.go.
const raceAllocFactor = 1.0

// racePoolAllocFactor is raceAllocFactor for a query whose allocations
// sync.Pools absorb, which the race detector drains at random; raceByteFactor
// scales the byte ceilings.
const (
	racePoolAllocFactor = 1.0
	raceByteFactor      = 1.0
)
