//go:build race

package qserv

// raceAllocFactor scales TestQueryAllocBudget's ceilings: the race
// detector's instrumentation allocates about 5 % more per query.
const raceAllocFactor = 1.06
