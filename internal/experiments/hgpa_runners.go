package experiments

import (
	"fmt"
	"time"

	"exactppr/internal/core"
	"exactppr/internal/hierarchy"
	"exactppr/internal/metrics"
	"exactppr/internal/ppr"
	"exactppr/internal/workload"
)

// runFig9 compares GPA and HGPA on the Web analogue across the four cost
// dimensions of Figure 9.
func runFig9(cfg Config) ([]Table, error) {
	// HGPA: full hierarchy. GPA: single level with one part per machine
	// (its leaf subgraphs are the machine-level parts, §3.1).
	hgpa, err := buildStore(cfg, "web", hierarchy.Options{})
	if err != nil {
		return nil, err
	}
	gpa, err := buildStore(cfg, "web", hierarchy.Options{Fanout: cfg.Machines, MaxLevels: 1})
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  fmt.Sprintf("GPA vs HGPA on Web analogue (%d machines, ε=%g)", cfg.Machines, cfg.Eps),
		Header: []string{"Algorithm", "Runtime(ms)", "MaxSpace(MB)", "Offline(s/machine)", "Network(KB)"},
	}
	for _, row := range []struct {
		name string
		b    *builtStore
	}{{"HGPA", hgpa}, {"GPA", gpa}} {
		m, err := measureCluster(cfg, row.b, cfg.Machines)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			row.name,
			ms(m.AvgRuntime),
			mb(m.MaxSpace),
			fmt.Sprintf("%.2f", offlinePerMachine(row.b.info, cfg.Machines).Seconds()),
			kb(m.AvgBytes),
		})
	}
	return []Table{t}, nil
}

var machineSweep = []int{2, 4, 6, 8, 10}
var sweepDatasets = []string{"web", "youtube", "pld"}

// machinesSweep runs one measurement per (dataset, machines) pair and
// formats columns chosen by pick.
func machinesSweep(cfg Config, title string, metrics []string,
	pick func(m *queryMeasurement, b *builtStore, machines int) []string) ([]Table, error) {
	var tables []Table
	for _, dsName := range sweepDatasets {
		b, err := buildStore(cfg, dsName, hierarchy.Options{})
		if err != nil {
			return nil, err
		}
		t := Table{
			Title:  fmt.Sprintf("%s — %s analogue", title, b.ds.Name),
			Header: append([]string{"Machines"}, metrics...),
		}
		for _, n := range machineSweep {
			m, err := measureCluster(cfg, b, n)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, append([]string{fmt.Sprint(n)}, pick(m, b, n)...))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// runFig10 reports the distributed query runtime vs machine count. The
// total is compute + one modeled network round; at analogue scale the
// network floor (~0.9 ms on the modeled 100 Mbit switch) dominates and
// per-machine compute is tens of microseconds of scheduling noise, so the
// deterministic load metric — max entries folded per machine, where the
// paper's "halve machines, halve runtime" claim lives — is printed
// alongside.
func runFig10(cfg Config) ([]Table, error) {
	return machinesSweep(cfg, "HGPA runtime vs machines (Figure 10)",
		[]string{"Runtime(ms)", "MaxMachineWork(entries)"},
		func(m *queryMeasurement, _ *builtStore, _ int) []string {
			return []string{ms(m.AvgRuntime), fmt.Sprintf("%.0f", m.AvgMaxWork)}
		})
}

func runFig11(cfg Config) ([]Table, error) {
	return machinesSweep(cfg, "HGPA max per-machine space vs machines (Figure 11)",
		[]string{"Space(MB)"},
		func(m *queryMeasurement, _ *builtStore, _ int) []string { return []string{mb(m.MaxSpace)} })
}

func runFig12(cfg Config) ([]Table, error) {
	return machinesSweep(cfg, "HGPA pre-computation time vs machines (Figure 12)",
		[]string{"Offline(s/machine)"},
		func(_ *queryMeasurement, b *builtStore, machines int) []string {
			return []string{fmt.Sprintf("%.2f", offlinePerMachine(b.info, machines).Seconds())}
		})
}

func runFig13(cfg Config) ([]Table, error) {
	return machinesSweep(cfg, "HGPA communication cost vs machines (Figure 13)",
		[]string{"Comm(KB)"},
		func(m *queryMeasurement, _ *builtStore, _ int) []string { return []string{kb(m.AvgBytes)} })
}

// levelsFor returns the level sweep per dataset, mirroring Figures 14–16
// (deeper graphs get deeper sweeps).
var levelSweepDatasets = []struct {
	name   string
	levels []int
}{
	{"email", []int{1, 2, 3, 4, 5}},
	{"web", []int{2, 4, 6, 8, 10}},
	{"youtube", []int{3, 5, 7, 9, 11}},
}

func levelsSweep(cfg Config, title, metric string,
	pick func(m *queryMeasurement, b *builtStore) string) ([]Table, error) {
	var tables []Table
	for _, spec := range levelSweepDatasets {
		t := Table{
			Title:  fmt.Sprintf("%s — %s analogue", title, spec.name),
			Header: []string{"Levels", metric},
		}
		for _, lv := range spec.levels {
			b, err := buildStore(cfg, spec.name, hierarchy.Options{MaxLevels: lv})
			if err != nil {
				return nil, err
			}
			m, err := measureCluster(cfg, b, cfg.Machines)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{fmt.Sprint(lv), pick(m, b)})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runFig14(cfg Config) ([]Table, error) {
	return levelsSweep(cfg, "HGPA runtime vs partitioning levels (Figure 14)", "Runtime(ms)",
		func(m *queryMeasurement, _ *builtStore) string { return ms(m.AvgRuntime) })
}

func runFig15(cfg Config) ([]Table, error) {
	return levelsSweep(cfg, "HGPA space vs partitioning levels (Figure 15)", "TotalSpace(MB)",
		func(_ *queryMeasurement, b *builtStore) string { return mb(b.store.SpaceBytes()) })
}

func runFig16(cfg Config) ([]Table, error) {
	return levelsSweep(cfg, "HGPA offline time vs partitioning levels (Figure 16)", "Offline(s/machine)",
		func(_ *queryMeasurement, b *builtStore) string {
			return fmt.Sprintf("%.2f", offlinePerMachine(b.info, cfg.Machines).Seconds())
		})
}

// runFig17 sweeps the per-level fanout on Web (2/4/8/16/64-way).
func runFig17(cfg Config) ([]Table, error) {
	t := Table{
		Title:  "Multi-way partitioning on Web analogue (Figure 17)",
		Header: []string{"Partitions", "Runtime(ms)", "Space(MB)", "Offline(s/machine)"},
	}
	for _, fanout := range []int{2, 4, 8, 16, 64} {
		b, err := buildStore(cfg, "web", hierarchy.Options{Fanout: fanout})
		if err != nil {
			return nil, err
		}
		m, err := measureCluster(cfg, b, cfg.Machines)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(fanout),
			ms(m.AvgRuntime),
			mb(b.store.SpaceBytes()),
			fmt.Sprintf("%.2f", offlinePerMachine(b.info, cfg.Machines).Seconds()),
		})
	}
	return []Table{t}, nil
}

var toleranceSweep = []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6}

// runFig18 sweeps the tolerance ε on Web.
func runFig18(cfg Config) ([]Table, error) {
	t := Table{
		Title:  "Tolerance sweep on Web analogue (Figure 18)",
		Header: []string{"Tolerance", "Runtime(ms)", "Space(MB)", "Offline(s/machine)", "Comm(KB)"},
	}
	for _, eps := range toleranceSweep {
		c := cfg
		c.Eps = eps
		b, err := buildStore(c, "web", hierarchy.Options{})
		if err != nil {
			return nil, err
		}
		m, err := measureCluster(c, b, cfg.Machines)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0e", eps),
			ms(m.AvgRuntime),
			mb(b.store.SpaceBytes()),
			fmt.Sprintf("%.2f", offlinePerMachine(b.info, cfg.Machines).Seconds()),
			kb(m.AvgBytes),
		})
	}
	return []Table{t}, nil
}

// runFig19 reports avg-L1 and L∞ against power iteration per tolerance.
func runFig19(cfg Config) ([]Table, error) {
	var tables []Table
	for _, dsName := range []string{"email", "web"} {
		t := Table{
			Title:  fmt.Sprintf("HGPA vs power iteration accuracy (Figure 19) — %s analogue", dsName),
			Header: []string{"Tolerance", "AvgL1", "LInf"},
		}
		for _, eps := range toleranceSweep {
			c := cfg
			c.Eps = eps
			b, err := buildStore(c, dsName, hierarchy.Options{})
			if err != nil {
				return nil, err
			}
			queries := workload.Queries(b.ds.G, min(cfg.Queries, 10), cfg.Seed+7)
			var sumL1, maxInf float64
			for _, q := range queries {
				got, err := b.store.Query(q)
				if err != nil {
					return nil, err
				}
				want, err := ppr.PowerIteration(b.ds.G, q, c.params())
				if err != nil {
					return nil, err
				}
				sumL1 += metrics.AvgL1(got, want, b.ds.G.NumNodes())
				if li := metrics.LInf(got, want); li > maxInf {
					maxInf = li
				}
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0e", eps),
				fmt.Sprintf("%.3e", sumL1/float64(len(queries))),
				fmt.Sprintf("%.3e", maxInf),
			})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// runFig20 is the Meetup scalability study at 10 machines.
func runFig20(cfg Config) ([]Table, error) {
	t := Table{
		Title:  "HGPA scalability on Meetup-like graphs, 10 machines (Figure 20)",
		Header: []string{"Graph", "Nodes", "Edges", "Runtime(ms)", "Space(MB)", "Offline(s/machine)"},
	}
	for _, id := range []string{"M1", "M2", "M3", "M4", "M5"} {
		b, err := buildStore(cfg, "meetup:"+id, hierarchy.Options{})
		if err != nil {
			return nil, err
		}
		m, err := measureCluster(cfg, b, 10)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			id,
			fmt.Sprint(b.ds.G.NumNodes()),
			fmt.Sprint(b.ds.G.NumEdges()),
			ms(m.AvgRuntime),
			mb(m.MaxSpace),
			fmt.Sprintf("%.2f", offlinePerMachine(b.info, 10).Seconds()),
		})
	}
	return []Table{t}, nil
}

// runFig23 compares centralized HGPA with plain power iteration.
func runFig23(cfg Config) ([]Table, error) {
	t := Table{
		Title:  "Centralized runtime: power iteration vs HGPA (Figure 23)",
		Header: []string{"Dataset", "PowerIteration(ms)", "HGPA(ms)", "Speedup"},
	}
	for _, dsName := range []string{"email", "web", "youtube"} {
		b, err := buildStore(cfg, dsName, hierarchy.Options{})
		if err != nil {
			return nil, err
		}
		queries := workload.Queries(b.ds.G, min(cfg.Queries, 10), cfg.Seed+5)
		var pTime, hTime time.Duration
		for _, q := range queries {
			t0 := time.Now()
			if _, err := ppr.PowerIteration(b.ds.G, q, cfg.params()); err != nil {
				return nil, err
			}
			pTime += time.Since(t0)
			t0 = time.Now()
			if _, err := b.store.Query(q); err != nil {
				return nil, err
			}
			hTime += time.Since(t0)
		}
		n := time.Duration(len(queries))
		speedup := float64(pTime) / float64(hTime)
		t.Rows = append(t.Rows, []string{
			b.ds.Name, ms(pTime / n), ms(hTime / n), fmt.Sprintf("%.1fx", speedup),
		})
	}
	return []Table{t}, nil
}

// runFig28 is the Appendix B large-graph study: the biggest analogue with
// a processor sweep and the paper's relaxed ε=1e-2.
func runFig28(cfg Config) ([]Table, error) {
	c := cfg
	c.Eps = 1e-2 // the paper relaxes tolerance on PLD_full to save cost
	b, err := buildStore(c, "pld_full", hierarchy.Options{})
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: fmt.Sprintf("HGPA on PLD_full analogue (|V|=%d, |E|=%d, ε=1e-2) vs processors (Figure 28)",
			b.ds.G.NumNodes(), b.ds.G.NumEdges()),
		Header: []string{"Processors", "Runtime(ms)", "Offline(s/machine)", "MaxSpace(MB)", "Comm(KB)"},
	}
	for _, procs := range []int{8, 16, 32, 64} {
		m, err := measureCluster(c, b, procs)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(procs),
			ms(m.AvgRuntime),
			fmt.Sprintf("%.2f", offlinePerMachine(b.info, procs).Seconds()),
			mb(m.MaxSpace),
			kb(m.AvgBytes),
		})
	}
	return []Table{t}, nil
}

// runBalance is a supplementary report on shard balance (the paper's load
// balance claim, §4.4).
func runBalance(cfg Config) ([]Table, error) {
	b, err := buildStore(cfg, "web", hierarchy.Options{})
	if err != nil {
		return nil, err
	}
	shards, err := core.Split(b.store, cfg.Machines)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  fmt.Sprintf("Shard balance on Web analogue, %d machines", cfg.Machines),
		Header: []string{"Shard", "Hubs", "Leaves", "Space(MB)"},
	}
	for i, sh := range shards {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(i), fmt.Sprint(sh.HubCount()),
			fmt.Sprint(sh.LeafCount()), mb(sh.SpaceBytes()),
		})
	}
	return []Table{t}, nil
}
