// Package experiments contains one runner per table and figure of the
// paper's evaluation (§6 and the appendices). Runners print plain-text
// tables shaped like the paper's plots — same axes, same series — so the
// qualitative claims (who wins, by what factor, where trends bend) can be
// compared row by row against the published numbers recorded in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"exactppr/internal/cluster"
	"exactppr/internal/core"
	"exactppr/internal/hierarchy"
	"exactppr/internal/ppr"
	"exactppr/internal/workload"
)

// Config tunes the harness. Zero values select sensible defaults.
type Config struct {
	// Scale multiplies the preset dataset sizes (default 0.5; DESIGN.md
	// explains the laptop-scale substitution).
	Scale float64
	// Seed drives all randomness.
	Seed int64
	// Machines is the default cluster size (paper default 6).
	Machines int
	// Queries is the number of random query nodes averaged per
	// measurement (paper: 1000; harness default: 20 to keep full runs
	// minutes, not hours).
	Queries int
	// Alpha and Eps are the PPR parameters (defaults 0.15 and 1e-4).
	Alpha, Eps float64
	// Workers bounds local precompute parallelism (0 = GOMAXPROCS).
	Workers int
	// Net models the interconnect (zero = the paper's 100 Mbit switch).
	Net cluster.NetworkModel
	// Out receives the printed tables (default os.Stdout).
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.5
	}
	if c.Machines <= 0 {
		c.Machines = 6
	}
	if c.Queries <= 0 {
		c.Queries = 20
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.15
	}
	if c.Eps <= 0 {
		c.Eps = 1e-4
	}
	if c.Net == (cluster.NetworkModel{}) {
		c.Net = cluster.HundredMbitSwitch
	}
	if c.Out == nil {
		c.Out = os.Stdout
	}
	return c
}

func (c Config) params() ppr.Params {
	return ppr.Params{Alpha: c.Alpha, Eps: c.Eps}
}

// Table is one printed result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// Runner computes the tables for one experiment.
type Runner func(cfg Config) ([]Table, error)

var registry = map[string]struct {
	about string
	run   Runner
}{
	"table2":  {"hub nodes per level, Email analogue (Table 2)", runHubTable("email")},
	"table3":  {"hub nodes per level, Web analogue (Table 3)", runHubTable("web")},
	"table4":  {"hub nodes per level, Youtube analogue (Table 4)", runHubTable("youtube")},
	"table5":  {"hub nodes per level, PLD analogue (Table 5)", runHubTable("pld")},
	"table6":  {"Meetup-like graph sizes M1..M5 (Table 6)", runTable6},
	"fig9":    {"GPA vs HGPA on Web: runtime/space/offline/network (Figure 9)", runFig9},
	"fig10":   {"HGPA runtime vs number of machines (Figure 10)", runFig10},
	"fig11":   {"HGPA max per-machine space vs machines (Figure 11)", runFig11},
	"fig12":   {"HGPA pre-computation time vs machines (Figure 12)", runFig12},
	"fig13":   {"HGPA communication cost vs machines (Figure 13)", runFig13},
	"fig14":   {"runtime vs partitioning levels (Figure 14)", runFig14},
	"fig15":   {"space vs partitioning levels (Figure 15)", runFig15},
	"fig16":   {"offline time vs partitioning levels (Figure 16)", runFig16},
	"fig17":   {"multi-way partitioning sweep on Web (Figure 17)", runFig17},
	"fig18":   {"tolerance sweep on Web: runtime/space/offline/comm (Figure 18)", runFig18},
	"fig19":   {"L1/L∞ vs power iteration across tolerances (Figure 19)", runFig19},
	"fig20":   {"scalability on Meetup M1..M5 (Figure 20)", runFig20},
	"fig21":   {"runtime: HGPA vs Pregel+ vs Blogel (Figure 21)", runFig21},
	"fig22":   {"communication: HGPA vs Pregel+ vs Blogel (Figure 22)", runFig22},
	"fig23":   {"centralized: power iteration vs HGPA (Figure 23)", runFig23},
	"fig24":   {"runtime: FastPPV vs HGPA vs HGPA_ad (Figure 24)", runFig24},
	"fig25":   {"accuracy: FastPPV vs HGPA(_ad), L norms (Figure 25)", runFig25},
	"fig26":   {"top-100 Precision/RAG/Kendall (Figure 26)", runFig26},
	"fig27":   {"Pregel+/Blogel scalability on Meetup (Figure 27, App. A)", runFig27},
	"fig28":   {"large-graph HGPA vs processors (Figure 28, App. B)", runFig28},
	"balance": {"shard load balance report (supplementary)", runBalance},
	"mc":      {"Monte Carlo [5] vs exact HGPA (supplementary)", runMonteCarlo},
	"space":   {"pre-computation space: PPV-JW vs GPA vs HGPA (§3.2, supplementary)", runSpace},
}

// List returns the known experiment ids in order.
func List() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// About returns the one-line description of an experiment id.
func About(id string) string { return registry[id].about }

// Run executes one experiment and returns its tables.
func Run(id string, cfg Config) ([]Table, error) {
	entry, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(List(), ", "))
	}
	return entry.run(cfg.withDefaults())
}

// RunAndPrint executes one experiment and prints its tables to cfg.Out.
func RunAndPrint(id string, cfg Config) error {
	cfg = cfg.withDefaults()
	start := time.Now()
	tables, err := Run(id, cfg)
	if err != nil {
		return err
	}
	for i := range tables {
		tables[i].Fprint(cfg.Out)
	}
	fmt.Fprintf(cfg.Out, "[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	return nil
}

// ---- shared helpers ----

// storeKey caches HGPA stores across runners within a process: the
// pre-computation dominates harness time and many figures share builds.
type storeKey struct {
	dataset          string
	scale            float64
	seed             int64
	alpha, eps       float64
	fanout, maxLevel int
}

var (
	storeCacheMu sync.Mutex
	storeCache   = map[storeKey]*builtStore{}
)

type builtStore struct {
	ds    *workload.Dataset
	store *core.Store
	info  *core.PrecomputeInfo
}

func buildStore(cfg Config, dataset string, opts hierarchy.Options) (*builtStore, error) {
	key := storeKey{dataset, cfg.Scale, cfg.Seed, cfg.Alpha, cfg.Eps, opts.Fanout, opts.MaxLevels}
	storeCacheMu.Lock()
	if b, ok := storeCache[key]; ok {
		storeCacheMu.Unlock()
		return b, nil
	}
	storeCacheMu.Unlock()

	ds, err := workload.Load(dataset, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	opts.Seed = cfg.Seed
	h, err := hierarchy.Build(ds.G, opts)
	if err != nil {
		return nil, err
	}
	store, info, err := core.PrecomputeWithInfo(h, cfg.params(), cfg.Workers)
	if err != nil {
		return nil, err
	}
	b := &builtStore{ds: ds, store: store, info: info}
	storeCacheMu.Lock()
	storeCache[key] = b
	storeCacheMu.Unlock()
	return b, nil
}

// ResetCache clears the cross-runner store cache (tests use it).
func ResetCache() {
	storeCacheMu.Lock()
	storeCache = map[storeKey]*builtStore{}
	storeCacheMu.Unlock()
}

// queryMeasurement aggregates distributed query costs over the workload.
type queryMeasurement struct {
	AvgRuntime time.Duration // modeled: max machine compute + 1 net round
	AvgCompute time.Duration // slowest machine's compute only
	AvgBytes   float64
	MaxSpace   int64 // max per-machine stored bytes
	// AvgMaxWork is the per-query maximum over machines of the number of
	// sparse entries folded — the deterministic load metric behind the
	// paper's "halve machines, halve runtime" claim, free of host
	// scheduling noise.
	AvgMaxWork float64
}

// measureCluster runs the query workload against an n-machine split of
// the store, sequentially per machine for unbiased per-machine timing,
// and models the single network round with cfg.Net.
func measureCluster(cfg Config, b *builtStore, machines int) (*queryMeasurement, error) {
	coord, err := cluster.NewLocalCluster(b.store, machines)
	if err != nil {
		return nil, err
	}
	shards, err := core.Split(b.store, machines)
	if err != nil {
		return nil, err
	}
	m := &queryMeasurement{}
	for _, sh := range shards {
		if s := sh.SpaceBytes(); s > m.MaxSpace {
			m.MaxSpace = s
		}
	}
	queries := workload.Queries(b.ds.G, cfg.Queries, cfg.Seed+99)
	var totalRuntime, totalCompute time.Duration
	var totalBytes, totalMaxWork int64
	for _, q := range queries {
		stats, err := coord.QuerySequential(q)
		if err != nil {
			return nil, err
		}
		totalCompute += stats.MaxMachineTime()
		totalRuntime += stats.MaxMachineTime() + cfg.Net.Cost(1, stats.BytesReceived)
		totalBytes += stats.BytesReceived
		var maxWork int64
		for _, sh := range shards {
			w, err := sh.QueryWork(q)
			if err != nil {
				return nil, err
			}
			if w > maxWork {
				maxWork = w
			}
		}
		totalMaxWork += maxWork
	}
	m.AvgRuntime = totalRuntime / time.Duration(len(queries))
	m.AvgCompute = totalCompute / time.Duration(len(queries))
	m.AvgBytes = float64(totalBytes) / float64(len(queries))
	m.AvgMaxWork = float64(totalMaxWork) / float64(len(queries))
	return m, nil
}

func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }
func kb(b float64) string       { return fmt.Sprintf("%.1f", b/1024) }
func mb(b int64) string         { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }

// offlinePerMachine estimates per-machine pre-computation time on an
// n-machine cluster from the summed task time (tasks are independent and
// hub-balanced; see core.PrecomputeInfo).
func offlinePerMachine(info *core.PrecomputeInfo, machines int) time.Duration {
	return info.TotalTaskTime / time.Duration(machines)
}
