// Shared scanning: the paper's section 4.3 design idea (convoy
// scheduling), which it planned to implement "later this year". With
// table scans the norm, k concurrent full-scan queries share one
// sequential pass over the table instead of issuing k seek-inducing
// scans — so "results from many full-scan queries can be returned in
// little more than the time for a single full-scan query".
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/datagen"
	"repro/internal/meta"
	"repro/internal/scanshare"
	"repro/internal/sqlengine"
)

func main() {
	// One worker-scale chunk table with a few hundred thousand rows.
	cat, err := datagen.Generate(
		datagen.Config{Seed: 2, ObjectsPerPatch: 3000, MeanSourcesPerObject: 0},
		datagen.DuplicateConfig{DeclBands: 1, MaxCopies: 40},
	)
	if err != nil {
		log.Fatal(err)
	}
	tbl := sqlengine.NewTable("Object", meta.ObjectSchema())
	rows := make([]sqlengine.Row, len(cat.Objects))
	for i, o := range cat.Objects {
		rows[i] = sqlengine.Row{
			o.ObjectID, o.RA, o.Decl, o.UFlux, o.GFlux, o.RFlux,
			o.IFlux, o.ZFlux, o.YFlux, o.UFluxSG, o.URadiusPS,
			int64(0), int64(0)}
	}
	if err := tbl.Insert(rows...); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("table: %d rows, %d bytes\n\n", tbl.Len(), tbl.ByteSize())

	scanner, err := scanshare.NewScanner(tbl, 4096)
	if err != nil {
		log.Fatal(err)
	}

	// Eight analytic queries join one convoy. Each filters on a
	// different magnitude cut, so they are genuinely distinct queries
	// sharing physical I/O.
	const k = 8
	type result struct {
		cut   float64
		count int64
	}
	results := make([]result, k)
	tickets := make([]*scanshare.Ticket, k)
	for i := 0; i < k; i++ {
		i := i
		cut := 20.0 + float64(i)
		results[i].cut = cut
		tickets[i] = scanner.Attach(func(lo, hi int) {
			var n int64
			for r := lo; r < hi; r++ {
				flux := tbl.Float(r, 7) // zFlux_PS
				if -2.5*math.Log10(flux)-48.6 < cut {
					n++
				}
			}
			results[i].count += n
		})
	}
	// A ninth query joins the convoy and is killed mid-scan: it is
	// dropped at the next piece boundary — the convoy's pace and the
	// other members' results are unaffected, and the table is not read
	// to completion on the dead query's behalf.
	killed := scanner.Attach(func(lo, hi int) {})
	killed.Abandon()
	killed.Wait() // returns once the convoy drops the ticket

	for _, tk := range tickets {
		tk.Wait()
	}

	fmt.Println("query                       rows matched")
	for _, r := range results {
		fmt.Printf("zMag < %-4.0f %12d\n", r.cut, r.count)
	}
	shared := scanner.BytesRead()
	independent := scanshare.IndependentScanBytes(tbl, k)
	fmt.Printf("\nphysical I/O with the convoy: %d bytes (%.2f table passes)\n",
		shared, float64(shared)/float64(tbl.ByteSize()))
	fmt.Printf("without sharing:              %d bytes (%d passes)\n", independent, k)
	fmt.Printf("saved scans joined mid-convoy: %d\n", scanner.ScansSaved())
}
