package main

import (
	"fmt"
	"strings"

	"repro/internal/datagen"
	"repro/internal/partition"
	"repro/internal/simcluster"
)

// The paper group: each experiment prints one table or figure of section 6
// as virtual seconds and records the same numbers as metrics. Their shapes
// are gated by internal/simcluster's tests, so they carry no gates here.

func runTable1(c *benchCtx) error {
	chunker, err := partition.NewChunker(partition.PaperConfig())
	if err != nil {
		return err
	}
	reg := datagen.LSSTRegistry(chunker)
	c.printf("%-14s %14s %10s %12s %12s\n", "table", "# rows", "row size", "footprint", "paper")
	paper := map[string]string{"Object": "48TB", "Source": "1.3PB", "ForcedSource": "620TB"}
	for _, name := range []string{"Object", "Source", "ForcedSource"} {
		info, err := reg.Table(name)
		if err != nil {
			return err
		}
		tb := float64(info.FootprintBytes()) / 1e12
		c.printf("%-14s %14.3g %9dB %11.3gTB %12s\n",
			name, float64(info.PaperRows), info.PaperRowBytes, tb, paper[name])
		c.metric(strings.ToLower(name)+"_rows", float64(info.PaperRows))
		c.metric(strings.ToLower(name)+"_footprint_tb", tb)
	}
	return nil
}

func mkLV(kind int, paperNote string) func(*benchCtx) error {
	return func(c *benchCtx) error {
		cl, err := c.cluster()
		if err != nil {
			return err
		}
		series, err := cl.LVSeries(kind, 20, 42)
		if err != nil {
			return err
		}
		c.printf("paper: %s\n", paperNote)
		c.printf("%-12s %s\n", "execution", "virtual seconds")
		lo, hi, sum := series[0], series[0], 0.0
		for i, v := range series {
			c.printf("%-12d %.2f\n", i+1, v)
			lo, hi, sum = min(lo, v), max(hi, v), sum+v
		}
		c.printf("mean: %.2f s\n", sum/float64(len(series)))
		c.metric("mean_s", sum/float64(len(series)))
		c.metric("min_s", lo)
		c.metric("max_s", hi)
		return nil
	}
}

func mkHV(kind int, paperNote string) func(*benchCtx) error {
	return func(c *benchCtx) error {
		cl, err := c.cluster()
		if err != nil {
			return err
		}
		c.printf("paper: %s\n", paperNote)
		for run := 1; run <= 3; run++ {
			t, err := cl.HVTime(kind)
			if err != nil {
				return err
			}
			c.printf("run %d: %.1f s  (%d chunks, %d result rows)\n", run, t.Elapsed, t.Chunks, t.Rows)
			c.metric(fmt.Sprintf("run%d_s", run), t.Elapsed)
			c.metric("chunks", float64(t.Chunks))
			c.metric("result_rows", float64(t.Rows))
		}
		return nil
	}
}

func runSHV1(c *benchCtx) error {
	cl, err := c.cluster()
	if err != nil {
		return err
	}
	c.printf("paper: 667.19 s and 660.25 s over two random 100 deg^2 regions\n")
	for i, seed := range []int64{3, 11} {
		t, err := cl.SHVTime(1, 100, seed)
		if err != nil {
			return err
		}
		c.printf("region %d: %.1f s  (%d chunks, %d local pairs)\n", i+1, t.Elapsed, t.Chunks, t.Rows)
		c.metric(fmt.Sprintf("region%d_s", i+1), t.Elapsed)
	}
	return nil
}

func runSHV2(c *benchCtx) error {
	cl, err := c.cluster()
	if err != nil {
		return err
	}
	c.printf("paper: 5:20:38, 2:06:56, 2:41:03 over three random 150 deg^2 regions\n")
	for i, seed := range []int64{5, 13, 21} {
		t, err := cl.SHVTime(2, 150, seed)
		if err != nil {
			return err
		}
		c.printf("region %d: %.0f s (%.2f h)  (%d chunks)\n", i+1, t.Elapsed, t.Elapsed/3600, t.Chunks)
		c.metric(fmt.Sprintf("region%d_s", i+1), t.Elapsed)
	}
	return nil
}

// mkScale is one weak-scaling figure: each class at 40, 100 and 150 nodes.
func mkScale(paperNote string, reps int, seed int64, classes ...string) func(*benchCtx) error {
	return func(c *benchCtx) error {
		cl, err := c.cluster()
		if err != nil {
			return err
		}
		nodes := []int{40, 100, 150}
		c.printf("paper: %s\n", paperNote)
		c.printf("%-8s %10d %10d %10d\n", "class", nodes[0], nodes[1], nodes[2])
		for _, class := range classes {
			c.printf("%-8s", class)
			for _, n := range nodes {
				v, err := cl.WeakScalingPoint(class, n, reps, seed)
				if err != nil {
					return err
				}
				c.printf(" %9.2fs", v)
				c.metric(fmt.Sprintf("%s_%d_s", strings.ToLower(class), n), v)
			}
			c.printf("\n")
		}
		return nil
	}
}

func runConcurrency(c *benchCtx) error {
	cl, err := c.cluster()
	if err != nil {
		return err
	}
	scObj, err := cl.ScaleFor("Object", true)
	if err != nil {
		return err
	}
	scSrc, err := cl.ScaleFor("Source", true)
	if err != nil {
		return err
	}
	ids := cl.SampleObjectIDs(8)
	if len(ids) < 8 {
		return fmt.Errorf("not enough sampled ids")
	}
	hv2 := simcluster.StreamQuery{
		SQL:   "SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, iFlux_PS, zFlux_PS, yFlux_PS FROM Object WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 0.5",
		Scale: scObj, Label: "HV2",
	}
	lv1 := func(id int64) simcluster.StreamQuery {
		return simcluster.StreamQuery{SQL: fmt.Sprintf("SELECT * FROM Object WHERE objectId = %d", id),
			Scale: scObj, Label: "LV1"}
	}
	lv2 := func(id int64) simcluster.StreamQuery {
		return simcluster.StreamQuery{SQL: fmt.Sprintf(
			"SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), ra, decl FROM Source WHERE objectId = %d", id),
			Scale: scSrc, Label: "LV2"}
	}
	solo, err := cl.Run([]simcluster.QuerySpec{{SQL: hv2.SQL, Scale: scObj, Label: "HV2-solo"}})
	if err != nil {
		return err
	}
	streams := [][]simcluster.StreamQuery{
		{hv2},
		{hv2},
		{lv1(ids[0]), lv1(ids[1]), lv1(ids[2]), lv1(ids[3])},
		{lv2(ids[4]), lv2(ids[5]), lv2(ids[6]), lv2(ids[7])},
	}
	timings, err := cl.RunStreams(streams, 1.0)
	if err != nil {
		return err
	}
	c.printf("paper: concurrent HV2 ~2x solo (5:53 vs 2.5-3 min); LV queries stuck in FIFO queues\n")
	c.printf("HV2 solo: %.1f s\n", solo[0].Elapsed)
	c.metric("hv2_solo_s", solo[0].Elapsed)
	names := []string{"HV2 stream A", "HV2 stream B", "LV1 stream", "LV2 stream"}
	keys := []string{"hv2_a", "hv2_b", "lv1", "lv2"}
	for si, st := range timings {
		c.printf("%-13s", names[si])
		slowest := 0.0
		for _, q := range st {
			c.printf("  [%.0f..%.0f]=%.1fs", q.Arrival, q.End, q.Elapsed)
			slowest = max(slowest, q.Elapsed)
		}
		c.printf("\n")
		c.metric(keys[si]+"_max_s", slowest)
	}
	c.printf("HV2 concurrent/solo ratios: %.2fx, %.2fx\n",
		timings[0][0].Elapsed/solo[0].Elapsed, timings[1][0].Elapsed/solo[0].Elapsed)
	return nil
}
