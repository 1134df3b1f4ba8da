//go:build race

package qserv

// raceAllocFactor scales TestQueryAllocBudget's ceilings: the race
// detector's instrumentation allocates about 5 % more per query.
const raceAllocFactor = 1.06

// racePoolAllocFactor is raceAllocFactor for a query whose allocations
// sync.Pools absorb, which the race detector drains at random; raceByteFactor
// scales the byte ceilings.
const (
	racePoolAllocFactor = 1.25
	raceByteFactor      = 1.2
)
