// Package characterize runs the offline characterization pipeline: each
// benchmark variant is executed once on the VM (recording its hardware
// counters and full memory trace), then the trace is scored against every
// Table 1 cache configuration to obtain per-configuration hit/miss counts,
// cycles and energy. This reproduces the paper's methodology of recording
// cache accesses and miss rates with SimpleScalar for every configuration
// and evaluating them under the Figure 4 energy model.
//
// Scoring never materializes a trace: kernel execution feeds packed
// accesses straight into cache.MultiSim through a fixed-size vm.StreamSink
// chunk buffer, on per-worker reusable simulator state. The tests keep a
// reference that records the trace and replays it once per configuration
// (replay_test.go); the streaming DBs must be bit-identical to it.
//
// The resulting DB is the ground truth the experiments draw from: the
// scheduler's profiling table learns *parts* of it at runtime, the ANN is
// trained on its feature/best-size pairs, and the "optimal" comparison
// system reads it directly.
package characterize

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"hetsched/internal/cache"
	"hetsched/internal/eembc"
	"hetsched/internal/energy"
	"hetsched/internal/stats"
	"hetsched/internal/vm"
)

// ConfigResult is one benchmark's behaviour under one cache configuration.
type ConfigResult struct {
	Config cache.Config
	Hits   uint64
	Misses uint64
	// L2Hits and OffChip split Misses when the DB was characterized with
	// the two-level hierarchy (the future-work L2 extension); both are
	// zero in the paper's L1-only mode, where every miss goes off-chip.
	L2Hits  uint64
	OffChip uint64
	// Cycles is total execution time: base cycles plus miss stalls.
	Cycles uint64
	// Energy is the Figure 4 breakdown over the execution.
	Energy energy.Breakdown
}

// Record is the full characterization of one benchmark variant.
type Record struct {
	// ID is the application identification number indexing the profiling
	// table (Section V); it equals the record's position in DB.Records.
	ID int
	// Kernel is the benchmark name.
	Kernel string
	// Params is the variant's scale/iterations/seed.
	Params eembc.Params
	// Features are the 18 execution statistics from the base-config
	// profiling run.
	Features stats.Features
	// BaseCycles is the perfect-L1 cycle count from the VM.
	BaseCycles uint64
	// Accesses is the number of data-memory accesses.
	Accesses uint64
	// Configs holds one result per Table 1 configuration, in design-space
	// order.
	Configs []ConfigResult
}

// Result returns the entry for cfg.
func (r *Record) Result(cfg cache.Config) (ConfigResult, error) {
	for _, cr := range r.Configs {
		if cr.Config == cfg {
			return cr, nil
		}
	}
	return ConfigResult{}, fmt.Errorf("characterize: %s: config %s not characterized", r.Kernel, cfg)
}

// BestConfig returns the configuration with the lowest total energy across
// the whole design space — the oracle the paper's "optimal" system uses.
func (r *Record) BestConfig() ConfigResult {
	best := r.Configs[0]
	for _, cr := range r.Configs[1:] {
		if cr.Energy.Total < best.Energy.Total {
			best = cr
		}
	}
	return best
}

// BestSizeKB returns the cache size of the energy-optimal configuration —
// the label the ANN is trained to predict.
func (r *Record) BestSizeKB() int { return r.BestConfig().Config.SizeKB }

// BestConfigForSize returns the lowest-energy configuration among those a
// core of fixed sizeKB offers.
func (r *Record) BestConfigForSize(sizeKB int) (ConfigResult, error) {
	var best ConfigResult
	found := false
	for _, cr := range r.Configs {
		if cr.Config.SizeKB != sizeKB {
			continue
		}
		if !found || cr.Energy.Total < best.Energy.Total {
			best = cr
			found = true
		}
	}
	if !found {
		return ConfigResult{}, fmt.Errorf("characterize: no configs of size %dKB", sizeKB)
	}
	return best, nil
}

// DB is a characterization database over a set of benchmark variants.
type DB struct {
	Records []Record
}

// Find returns the record for a kernel/params pair.
func (db *DB) Find(kernel string, p eembc.Params) (*Record, error) {
	for i := range db.Records {
		r := &db.Records[i]
		if r.Kernel == kernel && r.Params == p {
			return r, nil
		}
	}
	return nil, fmt.Errorf("characterize: no record for %s %+v", kernel, p)
}

// Record returns the record with the given application ID.
func (db *DB) Record(id int) (*Record, error) {
	if id < 0 || id >= len(db.Records) {
		return nil, fmt.Errorf("characterize: app id %d out of range", id)
	}
	return &db.Records[id], nil
}

// Variant names one benchmark variant to characterize.
type Variant struct {
	Kernel string
	Params eembc.Params
}

// CanonicalVariants returns the paper-like set: every kernel at scale 1 with
// the default iteration count and seed.
func CanonicalVariants() []Variant {
	var out []Variant
	for _, name := range eembc.Names() {
		out = append(out, Variant{Kernel: name, Params: eembc.DefaultParams()})
	}
	return out
}

// TelecomVariants returns the telecom-domain kernels at canonical
// parameters — the second application domain of Section IV.D's
// multiple-ANN discussion.
func TelecomVariants() []Variant {
	var out []Variant
	for _, k := range eembc.TelecomSuite() {
		out = append(out, Variant{Kernel: k.Name, Params: eembc.DefaultParams()})
	}
	return out
}

// ExtendedVariants returns the automotive and telecom kernels at canonical
// parameters (20 applications).
func ExtendedVariants() []Variant {
	return append(CanonicalVariants(), TelecomVariants()...)
}

// augmentNames builds the scale/seed-augmented pool over the given kernels.
func augmentNames(names []string) []Variant {
	scales := []int{1, 2, 4}
	seeds := []int64{1, 2}
	var out []Variant
	for _, name := range names {
		for _, sc := range scales {
			for _, sd := range seeds {
				out = append(out, Variant{
					Kernel: name,
					Params: eembc.Params{Scale: sc, Iterations: 4, Seed: sd},
				})
			}
		}
	}
	return out
}

// AugmentedVariants returns the training pool: every automotive kernel at
// several data scales and seeds. Each variant is a genuinely re-simulated
// program (see DESIGN.md, substitutions): augmentation exists because 16
// samples are too few to train a from-scratch ANN robustly.
func AugmentedVariants() []Variant {
	return augmentNames(eembc.Names())
}

// AugmentedExtendedVariants augments over both domains (20 kernels).
func AugmentedExtendedVariants() []Variant {
	names := eembc.Names()
	for _, k := range eembc.TelecomSuite() {
		names = append(names, k.Name)
	}
	return augmentNames(names)
}

// Options extends characterization beyond the paper's L1-only Figure 4
// model.
type Options struct {
	// L2 enables the two-level hierarchy (future-work extension): traces
	// replay through the private L2 and energies/cycles use the L2-aware
	// model. Nil reproduces the paper.
	L2 *energy.L2Model
	// Workers bounds the worker pool that records traces and scores them
	// against the design space. 0 means runtime.GOMAXPROCS(0); 1 runs the
	// whole build serially. Workers never changes results — the DB is
	// assembled slot-by-slot in variant and design-space order.
	Workers int
}

// replays counts trace traversals performed by this process: one per
// variant characterized (its single fused execution+simulation pass), plus
// one per (variant, configuration) pair the test-only replay reference
// scores. The disk-cache tests assert a warm load does not move it.
var replays atomic.Uint64

// Characterize builds the database for the given variants under the energy
// model, fanning (variant × configuration) replay pairs across a worker
// pool. Records appear in variant order and are assigned IDs matching
// their index; results are identical for any worker count.
func Characterize(variants []Variant, em *energy.Model) (*DB, error) {
	return CharacterizeWithOptions(variants, em, Options{})
}

// jobFunc is one pool job. The scratch argument is the executing worker's
// private reusable simulation state; jobs that don't need it ignore it.
type jobFunc func(*engineScratch)

// engineScratch is one pool worker's reusable simulation state: a MultiSim
// that is Reset between kernels instead of reconstructed, and a StreamSink
// whose chunk buffer and footprint bitset are recycled across programs.
// Workers own their scratch exclusively, so no synchronization is needed,
// and because Reset is bit-identical to fresh construction the reuse can
// never leak state between variants. This is what makes worker scaling
// additive: the per-variant allocation churn (a ~50 KB simulator plus a
// full packed trace per kernel under the old layout) previously grew the
// GC's share of every worker's time until 8 workers ran *slower* than 1.
type engineScratch struct {
	ms   *cache.MultiSim
	mode string // simulator mode key: "" for L1-only, else the L2 config
	sink *vm.StreamSink
	// overlap is set for the length of a call that leaves workers idle
	// (fewer variants than workers): the sink then simulates each chunk on
	// a goroutine of its own while the kernel goes on executing.
	overlap bool
}

// scratchPool recycles worker scratch across CharacterizeWithOptions calls,
// so repeated characterization (sweeps, the daemon's periodic refresh) reuses
// the simulators instead of rebuilding ~50 KB of stack state per worker per
// call. Reset is proven bit-identical to fresh construction, so pooling is
// invisible in the output.
var scratchPool = sync.Pool{New: func() any { return new(engineScratch) }}

// multiSim returns the worker's simulator for the call's mode, freshly
// Reset, constructing it on first use or when the mode changed. The mode
// (L2 or not) is fixed for the lifetime of one CharacterizeWithOptions
// pool, so one simulator per worker suffices.
func (sc *engineScratch) multiSim(opts Options) (*cache.MultiSim, error) {
	mode := ""
	if opts.L2 != nil {
		c := opts.L2.L2Params().Config
		mode = fmt.Sprintf("%d/%d/%d", c.SizeKB, c.Ways, c.LineBytes)
	}
	if sc.ms != nil && sc.mode == mode {
		sc.ms.Reset()
		return sc.ms, nil
	}
	var err error
	if opts.L2 != nil {
		sc.ms, err = cache.NewMultiSimHierarchy(cache.DesignSpace(), opts.L2.L2Params().Config)
	} else {
		sc.ms, err = cache.NewMultiSim(cache.DesignSpace())
	}
	if err != nil {
		sc.ms, sc.mode = nil, ""
		return nil, err
	}
	sc.mode = mode
	return sc.ms, nil
}

// stream returns the worker's StreamSink rebound to ms with the footprint
// bitset sized for memBytes of address space, its consumer started when
// the call overlaps execution and simulation.
func (sc *engineScratch) stream(ms *cache.MultiSim, memBytes int) *vm.StreamSink {
	if sc.sink == nil {
		sc.sink = vm.NewStreamSink(ms, memBytes)
	} else {
		sc.sink.Reset(ms, memBytes)
	}
	if sc.overlap {
		sc.sink.Overlap()
	}
	return sc.sink
}

// CharacterizeWithOptions is Characterize with extension knobs.
func CharacterizeWithOptions(variants []Variant, em *energy.Model, opts Options) (*DB, error) {
	return characterizeVariants(variants, em, opts, characterizeOneStream)
}

// characterizeVariants builds the DB, characterizing each variant with
// one: the stream path in production, the replay reference in tests.
//
// Concurrency layout: a pool of opts.Workers goroutines executes every
// CPU-bound job one submits, while one lightweight driver per in-flight
// variant calls one and assembles the Record once all its jobs land.
// In-flight variants are bounded by the worker count so at most that many
// variants' states are live at once. Each pool worker that runs a job owns
// a private reusable scratch (simulator + stream buffer), taken on its
// first job, so a one-variant stream call takes one scratch; nothing
// mutable is shared, and every result is written to a pre-assigned slot,
// so the output is byte-identical to a serial build. A call with fewer
// variants than workers would leave workers idle, so each pool worker's
// stream overlaps kernel execution with cache simulation instead
// (engineScratch.overlap); full-suite builds never take that path.
func characterizeVariants(variants []Variant, em *energy.Model, opts Options,
	one func(Variant, *energy.Model, Options, chan jobFunc) (Record, error)) (*DB, error) {
	if em == nil {
		return nil, fmt.Errorf("characterize: nil energy model")
	}
	if len(variants) == 0 {
		return nil, fmt.Errorf("characterize: no variants")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	overlap := len(variants) < workers

	// The job pool: drivers submit closures, pool goroutines run them.
	// Drivers never occupy a pool slot themselves, so waiting for a
	// sub-job cannot deadlock.
	jobs := make(chan jobFunc)
	var poolWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		poolWG.Add(1)
		go func() {
			defer poolWG.Done()
			var sc *engineScratch // taken on the first job: idle workers take none
			for f := range jobs {
				if sc == nil {
					sc = scratchPool.Get().(*engineScratch)
					sc.overlap = overlap
				}
				f(sc)
			}
			if sc != nil {
				scratchPool.Put(sc)
			}
		}()
	}

	records := make([]Record, len(variants))
	errs := make([]error, len(variants))
	inflight := make(chan struct{}, workers) // bounds live traces
	var driverWG sync.WaitGroup
	for i, v := range variants {
		driverWG.Add(1)
		go func(i int, v Variant) {
			defer driverWG.Done()
			inflight <- struct{}{}
			defer func() { <-inflight }()
			rec, err := one(v, em, opts, jobs)
			if err != nil {
				errs[i] = err
				return
			}
			rec.ID = i
			records[i] = rec
		}(i, v)
	}
	driverWG.Wait()
	close(jobs)
	poolWG.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &DB{Records: records}, nil
}

// submit runs f on the pool and returns a completion channel.
func submit(jobs chan jobFunc, f jobFunc) <-chan struct{} {
	done := make(chan struct{})
	jobs <- func(sc *engineScratch) {
		defer close(done)
		f(sc)
	}
	return done
}

// characterizeOneStream characterizes one variant: one fused pool job
// executes the kernel with its memory stream feeding the worker's reusable
// MultiSim through a chunked StreamSink, so no trace is ever materialized —
// the ~2 MB/variant of trace and simulator allocations of the replay
// reference collapse to the Record itself. The aggregate statistics the
// feature vector needs (access/write counts, distinct-block footprints) are
// maintained inline by the sink during execution.
func characterizeOneStream(v Variant, em *energy.Model, opts Options, jobs chan jobFunc) (Record, error) {
	k, err := eembc.ByName(v.Kernel)
	if err != nil {
		return Record{}, err
	}
	space := cache.DesignSpace()
	var (
		rec    Record
		jobErr error
	)
	<-submit(jobs, func(sc *engineScratch) {
		ms, err := sc.multiSim(opts)
		if err != nil {
			jobErr = err
			return
		}
		sink := sc.stream(ms, k.MemBytes(v.Params))
		replays.Add(1)
		ctr, err := eembc.Run(k, v.Params, sink)
		// Len is the flush: it streams the sink's last batch into ms and
		// joins an overlapped consumer, so it comes before ms.Stats() and
		// before the error check, which must not leave the consumer running.
		accesses := sink.Len()
		if err != nil {
			jobErr = err
			return
		}
		rec = Record{
			Kernel:     v.Kernel,
			Params:     v.Params,
			BaseCycles: ctr.Cycles,
			Accesses:   uint64(accesses),
			Configs:    make([]ConfigResult, len(space)),
		}
		for j, s := range ms.Stats() {
			if opts.L2 != nil {
				rec.Configs[j] = resultL2(s.Config, s.Hits, s.L2Hits, s.OffChip, ctr.Cycles, opts.L2)
			} else {
				rec.Configs[j] = resultL1(s.Config, s.Hits, s.Misses, ctr.Cycles, em)
			}
		}
		var baseHits, baseMisses uint64
		for j, cfg := range space {
			if cfg == cache.BaseConfig {
				baseHits, baseMisses = rec.Configs[j].Hits, rec.Configs[j].Misses
			}
		}
		rec.Features = stats.FromExecution(ctr, sink, baseHits, baseMisses)
	})
	if jobErr != nil {
		return Record{}, jobErr
	}
	return rec, nil
}

// resultL1 assembles the L1-only ConfigResult from hit/miss counts. The
// stream path and the test-only replay reference both funnel through this
// (and resultL2), so cycles and energy are computed by literally the same
// code and bit-identity of the counts implies bit-identity of the floats.
func resultL1(cfg cache.Config, hits, misses, baseCycles uint64, em *energy.Model) ConfigResult {
	cycles := em.ExecCycles(baseCycles, cfg, misses)
	return ConfigResult{
		Config:  cfg,
		Hits:    hits,
		Misses:  misses,
		OffChip: misses,
		Cycles:  cycles,
		Energy:  em.Total(cfg, hits, misses, cycles),
	}
}

// resultL2 assembles the two-level ConfigResult from the L1/L2/off-chip
// split.
func resultL2(cfg cache.Config, l1Hits, l2Hits, offChip, baseCycles uint64, em *energy.L2Model) ConfigResult {
	cycles := em.ExecCyclesL2(baseCycles, cfg, l2Hits, offChip)
	b := em.TotalL2(cfg, l1Hits, l2Hits, offChip, cycles)
	return ConfigResult{
		Config:  cfg,
		Hits:    l1Hits,
		Misses:  l2Hits + offChip,
		L2Hits:  l2Hits,
		OffChip: offChip,
		Cycles:  cycles,
		Energy:  b.Breakdown,
	}
}

// Save serializes the DB as JSON.
func (db *DB) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(db)
}

// Load deserializes a DB written by Save.
func Load(r io.Reader) (*DB, error) {
	var db DB
	if err := json.NewDecoder(r).Decode(&db); err != nil {
		return nil, fmt.Errorf("characterize: load: %v", err)
	}
	return &db, nil
}

var (
	defaultOnce sync.Once
	defaultDB   *DB
	defaultErr  error

	augOnce sync.Once
	augDB   *DB
	augErr  error
)

// Default returns the canonical-variant DB under the default energy model,
// computed once per process. Experiments and tests share it.
func Default() (*DB, error) {
	defaultOnce.Do(func() {
		defaultDB, defaultErr = Characterize(CanonicalVariants(), energy.NewDefault())
	})
	return defaultDB, defaultErr
}

// Augmented returns the augmented-variant DB (training pool), computed once
// per process.
func Augmented() (*DB, error) {
	augOnce.Do(func() {
		augDB, augErr = Characterize(AugmentedVariants(), energy.NewDefault())
	})
	return augDB, augErr
}
