//go:build !race

package qserv

// raceAllocFactor scales TestQueryAllocBudget's ceilings; see race_test.go.
const raceAllocFactor = 1.0
