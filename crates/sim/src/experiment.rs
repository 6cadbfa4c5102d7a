//! The experiment harness: one function per table/figure of the paper.
//!
//! Sweeps run fault-tolerantly: each (configuration, workload) cell is
//! isolated — a panicking or erroring cell renders as a failed cell
//! (`✗`) while the rest of the sweep completes — and, with resume
//! enabled (`--resume` / `TLAT_RESUME`), completed cells are journaled
//! crash-safely so a killed sweep restarts only its missing cells. See
//! DESIGN.md's "Failure model & recovery".

use crate::config::{SchemeConfig, TrainingData};
use crate::engine::simulate;
use crate::error::lock_unpoisoned;
use crate::faults::Faults;
use crate::gang::{gang_simulate_isolated_compiled, GangLane};
use crate::journal::{self, SweepJournal};
use crate::metrics::{self, CellOutcome, Counter, Phase};
use crate::pool;
use crate::report::{Cell, Report};
use crate::stats::SimResult;
use crate::supervisor::{self, Shard};
use crate::traces::TraceStore;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tlat_core::{
    AutomatonKind, HrtConfig, ProfilePredictor, StaticTraining, StaticTrainingConfig,
    TrainingProfile,
};
use tlat_trace::{geometric_mean, BranchClass, CompiledTrace, InstClass, Trace};
use tlat_workloads::{Workload, WorkloadKind};

/// Memoized training artifacts, shared across every sweep a harness
/// runs.
///
/// A sweep retrains Static Training / Profiling from scratch for every
/// (config, workload) cell, but the artifacts are pure functions of
/// (training trace, history length): per-pattern taken counts for ST,
/// per-branch majority bits for Profiling. Caching them turns the
/// training passes of an N-row sweep — and of every later sweep over
/// the same workloads — into hash lookups.
#[derive(Debug, Default)]
struct TrainedCache {
    /// `(workload, diff-training?, history_bits)` → ST profile.
    profiles: HashMap<(String, bool, u8), Arc<TrainingProfile>>,
    /// `workload` → trained profiling predictor (always trained on the
    /// test trace; lanes take a clone).
    profilers: HashMap<String, Arc<ProfilePredictor>>,
}

/// The experiment harness: workloads + shared trace store.
#[derive(Debug)]
pub struct Harness {
    store: TraceStore,
    workloads: Vec<Workload>,
    trained: Mutex<TrainedCache>,
    /// Fault-injection plan for the sweep-cell site (the disk-cache
    /// sites live inside the store). Inert by default.
    faults: Arc<Faults>,
    /// Root for sweep checkpoint journals; `None` = resume disabled.
    resume_root: Option<PathBuf>,
    /// When set, this process computes only the sweep cells its shard
    /// admits (journal replay still serves any landed cell). `None` =
    /// compute everything.
    shard: Option<Shard>,
    /// Gang walks actually executed (a fully replayed workload does
    /// not count). Lets tests assert resume skips completed work.
    walks: AtomicU64,
}

impl Harness {
    /// Creates a harness over the nine-benchmark suite with a given
    /// conditional-branch budget per trace.
    pub fn new(budget: u64) -> Self {
        Harness::over(TraceStore::new(budget))
    }

    /// Creates a harness over an explicit [`TraceStore`] (tests use
    /// this to attach scratch disk caches and fault plans).
    pub fn over(store: TraceStore) -> Self {
        Harness {
            store,
            workloads: tlat_workloads::all(),
            trained: Mutex::new(TrainedCache::default()),
            faults: Faults::none(),
            resume_root: None,
            shard: None,
            walks: AtomicU64::new(0),
        }
    }

    /// Creates a harness with the `TLAT_BRANCH_LIMIT`-configured
    /// budget, the `TLAT_TRACE_CACHE`-configured persistent trace
    /// cache (on by default at `target/tlat-cache/`), the
    /// `TLAT_FAULTS`-configured fault-injection plan (off by default),
    /// and `TLAT_RESUME`-configured sweep checkpoint/resume (off by
    /// default, journaled under the trace-cache directory).
    ///
    /// `TLAT_SHARD` and `TLAT_WORKERS` (see [`crate::supervisor`])
    /// imply resume — a shard's output *is* its journal records, and a
    /// supervisor renders from the landed journal — so either being
    /// set turns the journal on without `TLAT_RESUME`.
    pub fn from_env() -> Self {
        metrics::enable_from_env();
        let harness = Harness::over(TraceStore::from_env()).with_faults(Faults::from_env());
        let shard = Shard::from_env();
        if !journal::resume_from_env() && !supervisor::implied_resume() {
            return harness;
        }
        match harness.store.disk_cache() {
            Some(cache) => {
                let root = cache.root().join("sweeps");
                let harness = harness.with_resume_root(root);
                match shard {
                    Some(shard) => harness.with_shard(shard),
                    None => harness,
                }
            }
            None => {
                eprintln!(
                    "warning: {} / {} / {} need the trace cache for the sweep journal, \
                     but the cache is disabled; checkpoint/resume and sharding stay off",
                    journal::RESUME_ENV,
                    supervisor::SHARD_ENV,
                    supervisor::WORKERS_ENV
                );
                harness
            }
        }
    }

    /// Attaches a fault-injection plan (sweep-cell and disk-cache
    /// sites). See [`crate::faults`].
    pub fn with_faults(mut self, faults: Arc<Faults>) -> Self {
        self.faults = Arc::clone(&faults);
        // The store is rebuilt in place so its disk cache shares the
        // plan.
        let store = std::mem::replace(&mut self.store, TraceStore::new(0));
        self.store = store.with_faults(faults);
        self
    }

    /// Enables sweep checkpoint/resume, journaling under `root`.
    pub fn with_resume_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.resume_root = Some(root.into());
        self
    }

    /// Restricts this harness to computing only the sweep cells its
    /// shard admits (see [`crate::supervisor::shard_of`]). Cells any
    /// other shard has already landed in the journal are still
    /// replayed; sharding only gates *computation*. Meaningful only
    /// with a resume root — without a journal there is no fingerprint
    /// to slice over, and the harness computes everything.
    pub fn with_shard(mut self, shard: Shard) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Number of gang walks this harness has actually executed (fully
    /// journal-replayed workloads are skipped and do not count).
    pub fn gang_walks(&self) -> u64 {
        self.walks.load(Ordering::Relaxed)
    }

    /// The benchmark suite.
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// The shared trace store.
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// Readies every trace a sweep reads, in parallel (see
    /// [`TraceStore::prewarm`]).
    pub fn prewarm(&self) {
        self.store.prewarm(&self.workloads);
    }

    /// Every workload's test record trace, loaded in parallel: for the
    /// reports that read records rather than compiled streams (Table 1,
    /// Figures 3 and 4, the CPI table, trace statistics).
    pub fn test_traces(&self) -> Vec<Arc<Trace>> {
        pool::run_indexed_from_env(self.workloads.len(), |i| {
            self.store.test(&self.workloads[i])
        })
    }

    /// Simulates one configuration on one workload. Returns `None` when
    /// the configuration wants Diff training and the workload has no
    /// training data set (the paper's Table 3 exclusions).
    pub fn run_one(&self, config: &SchemeConfig, workload: &Workload) -> Option<SimResult> {
        let test = self.store.test(workload);
        let training: Option<Arc<Trace>> = if config.needs_training() {
            if config.wants_diff_training() {
                Some(self.store.train(workload)?)
            } else {
                Some(Arc::clone(&test))
            }
        } else {
            None
        };
        let mut predictor = config.build(training.as_deref());
        Some(simulate(predictor.as_mut(), &test))
    }

    /// Column headings shared by every accuracy report: the nine
    /// benchmarks plus the paper's three geometric-mean columns.
    pub fn accuracy_columns(&self) -> Vec<String> {
        let mut cols: Vec<String> = self.workloads.iter().map(|w| w.name.to_owned()).collect();
        cols.push("Int G Mean".to_owned());
        cols.push("FP G Mean".to_owned());
        cols.push("Tot G Mean".to_owned());
        cols
    }

    /// Runs a set of configurations over the full suite and renders
    /// the paper-style accuracy table.
    ///
    /// Execution is the gang engine on the bounded worker pool: one
    /// single-pass trace walk per workload feeds every configuration
    /// (see [`crate::gang`]), and the per-workload walks fan out over
    /// at most `TLAT_THREADS` workers (see [`crate::pool`]). Both are
    /// execution details only: the rendered report is byte-identical
    /// to [`accuracy_table_sequential`](Self::accuracy_table_sequential).
    pub fn accuracy_table(&self, title: &str, configs: &[SchemeConfig]) -> Report {
        self.accuracy_table_on(title, configs, pool::threads_from_env())
    }

    /// [`accuracy_table`](Self::accuracy_table) with a caller-chosen
    /// worker count (1 = gang engine without the pool; the throughput
    /// bench uses this to separate the two wins).
    ///
    /// Resilience: each per-workload walk runs panic-isolated on the
    /// pool, each lane is isolated within its walk (see
    /// [`gang_simulate_isolated_compiled`]), failed cells render as `✗`
    /// with the failure message footnoted, and — when resume is enabled
    /// — completed cells are journaled crash-safely and replayed instead
    /// of recomputed.
    pub fn accuracy_table_on(
        &self,
        title: &str,
        configs: &[SchemeConfig],
        threads: usize,
    ) -> Report {
        let journal = self.sweep_journal(title, configs);
        let fingerprint = journal.as_ref().map(SweepJournal::fingerprint);
        let replayed: HashMap<(usize, usize), Cell> =
            journal.as_ref().map(SweepJournal::load).unwrap_or_default();
        let replayed_keys: std::collections::HashSet<(usize, usize)> =
            replayed.keys().copied().collect();
        let n_configs = configs.len();
        // One gang walk per workload; cell (ci, wi) is lane ci of walk
        // wi. Traces are generated inside each walk task (still in
        // parallel across workloads), so fully replayed workloads do no
        // work at all. A sharded harness additionally computes only the
        // cells its shard admits — other shards' cells stay missing
        // here and land from *their* processes into the same journal.
        let per_workload = pool::run_isolated(self.workloads.len(), threads, |wi| {
            let missing: Vec<usize> = (0..n_configs)
                .filter(|ci| !replayed.contains_key(&(*ci, wi)))
                .filter(|ci| self.admits_cell(fingerprint, *ci, wi, n_configs))
                .collect();
            if missing.is_empty() {
                return Vec::new();
            }
            self.walks.fetch_add(1, Ordering::Relaxed);
            let computed = self.gang_workload(configs, &missing, wi);
            if let Some(j) = &journal {
                for (ci, cell) in &computed {
                    j.record(*ci, wi, cell);
                }
            }
            computed
        });
        let mut results = replayed;
        for (wi, outcome) in per_workload.into_iter().enumerate() {
            match outcome {
                Ok(cells) => {
                    for (ci, cell) in cells {
                        results.insert((ci, wi), cell);
                    }
                }
                // The whole walk task escaped its inner isolation (a
                // harness bug rather than a lane bug): every cell this
                // process was responsible for and had not replayed
                // fails with the panic message.
                Err(panic) => {
                    for ci in 0..n_configs {
                        if !self.admits_cell(fingerprint, ci, wi, n_configs) {
                            continue;
                        }
                        results
                            .entry((ci, wi))
                            .or_insert_with(|| Cell::Failed(panic.message.clone()));
                    }
                }
            }
        }
        self.account_cells(configs, &results, &replayed_keys);
        self.render_accuracy(title, configs, &results)
    }

    /// Whether this harness computes a given cell: `true` unless a
    /// shard is attached *and* a journal fingerprint exists to slice
    /// over *and* the cell hashes to a different shard.
    fn admits_cell(
        &self,
        fingerprint: Option<u64>,
        ci: usize,
        wi: usize,
        n_configs: usize,
    ) -> bool {
        match (&self.shard, fingerprint) {
            (Some(shard), Some(fp)) => shard.admits(fp, (wi * n_configs + ci) as u64),
            _ => true,
        }
    }

    /// Renders a sweep purely from its checkpoint journal — no cell is
    /// ever computed in this process. Landed cells replay; each missing
    /// cell is filled by `missing(ci, wi)` (the supervisor's degraded
    /// path fills `✗` cells naming the abandoned shard — recomputing
    /// here would re-trigger whatever killed the workers).
    pub fn accuracy_table_journaled(
        &self,
        title: &str,
        configs: &[SchemeConfig],
        missing: &dyn Fn(usize, usize) -> Cell,
    ) -> Report {
        let journal = self.sweep_journal(title, configs);
        let mut results: HashMap<(usize, usize), Cell> =
            journal.as_ref().map(SweepJournal::load).unwrap_or_default();
        let replayed_keys: std::collections::HashSet<(usize, usize)> =
            results.keys().copied().collect();
        for ci in 0..configs.len() {
            for wi in 0..self.workloads.len() {
                results.entry((ci, wi)).or_insert_with(|| missing(ci, wi));
            }
        }
        self.account_cells(configs, &results, &replayed_keys);
        self.render_accuracy(title, configs, &results)
    }

    /// Tallies every cell of an assembled sweep into the telemetry
    /// layer, classed by provenance: journal-replayed, computed,
    /// failed, or not applicable.
    fn account_cells(
        &self,
        configs: &[SchemeConfig],
        results: &HashMap<(usize, usize), Cell>,
        replayed: &std::collections::HashSet<(usize, usize)>,
    ) {
        if !metrics::enabled() {
            return;
        }
        for (ci, config) in configs.iter().enumerate() {
            for (wi, workload) in self.workloads.iter().enumerate() {
                let outcome = if replayed.contains(&(ci, wi)) {
                    CellOutcome::Replayed
                } else {
                    match results.get(&(ci, wi)) {
                        Some(Cell::Value(_)) => CellOutcome::Computed,
                        Some(Cell::Failed(_)) => CellOutcome::Failed,
                        Some(Cell::Blank) => CellOutcome::Blank,
                        // A sharded run only accounts the cells it was
                        // responsible for; anything absent belongs to
                        // another shard's process.
                        None if self.shard.is_some() => continue,
                        None => CellOutcome::Blank,
                    }
                };
                metrics::bump(match outcome {
                    CellOutcome::Computed => Counter::CellsComputed,
                    CellOutcome::Replayed => Counter::CellsReplayed,
                    CellOutcome::Failed => Counter::CellsFailed,
                    CellOutcome::Blank => Counter::CellsBlank,
                });
                metrics::record_cell(workload.name, config.family(), outcome);
            }
        }
    }

    /// Simulates the `missing` configurations over one workload in a
    /// single panic-isolated trace walk. Returns `(config index,
    /// cell)` pairs; cells are [`Cell::Blank`] exactly where
    /// [`run_one`](Self::run_one) returns `None` (Diff training with
    /// no training set) and [`Cell::Failed`] where the lane's build or
    /// simulation panicked or errored.
    fn gang_workload(
        &self,
        configs: &[SchemeConfig],
        missing: &[usize],
        wi: usize,
    ) -> Vec<(usize, Cell)> {
        let workload = &self.workloads[wi];
        let fail_column = |e: &dyn std::fmt::Display| {
            // The whole column shares one failure cause (e.g. the
            // workload faulted or its trace cannot be generated).
            let message = e.to_string();
            eprintln!("warning: {message}; failing {}'s cells", workload.name);
            missing
                .iter()
                .map(|&ci| (ci, Cell::Failed(message.clone())))
                .collect::<Vec<_>>()
        };
        let cell_fault = |mi: usize| {
            let ci = missing[mi];
            // Stable cell id for deterministic fault injection:
            // independent of scheduling AND of which cells a resume
            // still has to compute.
            let cell = (wi * configs.len() + ci) as u64;
            self.faults
                .on_cell(cell, &format!("{}/{}", configs[ci].label(), workload.name));
            ci
        };
        // Every lane walks the compiled stream alone, so a warm TLA3
        // cache entry decodes straight into the stream and the
        // per-branch record vector is never materialized.
        let compiled = match self.store.try_test_compiled(workload) {
            Ok(compiled) => compiled,
            Err(e) => return fail_column(&e),
        };
        let outcomes = gang_simulate_isolated_compiled(
            missing.len(),
            |mi| {
                let ci = cell_fault(mi);
                self.build_lane(&configs[ci], workload, &compiled)
            },
            &compiled,
            None,
        );
        Self::outcome_cells(missing, outcomes)
    }

    /// Zips the per-lane isolation outcomes back onto their config
    /// indices as report cells.
    fn outcome_cells(
        missing: &[usize],
        outcomes: Vec<crate::gang::IsolatedLane>,
    ) -> Vec<(usize, Cell)> {
        missing
            .iter()
            .zip(outcomes)
            .map(|(&ci, outcome)| {
                let cell = match outcome {
                    Some(Ok(result)) => Cell::Value(result.accuracy()),
                    Some(Err(panic)) => Cell::Failed(panic.message),
                    None => Cell::Blank, // the paper's Table 3 exclusions
                };
                (ci, cell)
            })
            .collect()
    }

    /// The checkpoint journal this harness would use for a sweep, when
    /// resume is enabled (`None` otherwise). The supervisor monitors
    /// and renders from this journal, and workers heartbeat into its
    /// directory.
    pub fn sweep_journal(&self, title: &str, configs: &[SchemeConfig]) -> Option<SweepJournal> {
        let root = self.resume_root.as_ref()?;
        let labels: Vec<String> = configs.iter().map(SchemeConfig::label).collect();
        let names: Vec<&str> = self.workloads.iter().map(|w| w.name).collect();
        Some(SweepJournal::open(
            root,
            title,
            &labels,
            &names,
            self.store.budget(),
        ))
    }

    /// The sweep's identity under this harness: the same FNV
    /// fingerprint the checkpoint journal keys its directory on
    /// (title + configuration labels + workload names + branch budget
    /// + codegen version). `tlat serve` uses it as the coalescing key,
    /// so two requests share one computation exactly when they would
    /// share one journal. Computed without touching disk, and
    /// independent of whether resume is enabled.
    pub fn sweep_fingerprint(&self, title: &str, configs: &[SchemeConfig]) -> u64 {
        let labels: Vec<String> = configs.iter().map(SchemeConfig::label).collect();
        let names: Vec<&str> = self.workloads.iter().map(|w| w.name).collect();
        SweepJournal::open(".", title, &labels, &names, self.store.budget()).fingerprint()
    }

    /// Builds one gang lane, routing the trained schemes through the
    /// memoized training artifacts (the sequential reference path keeps
    /// retraining per cell, and the byte-identity tests pin the two
    /// paths together). Static Training profiles and the profiling bits
    /// come from compiled streams
    /// ([`TrainingProfile::collect_compiled`],
    /// [`ProfilePredictor::train_compiled`] — identical to the record
    /// passes, pinned by tests): the test stream for Same training and
    /// the profiling bits, the workload's compiled training stream for
    /// Diff training. Returns `None` exactly where
    /// [`run_one`](Self::run_one) does.
    fn build_lane(
        &self,
        config: &SchemeConfig,
        workload: &Workload,
        compiled: &CompiledTrace,
    ) -> Option<GangLane> {
        match config {
            SchemeConfig::StaticTraining {
                history_bits,
                hrt,
                data,
            } => {
                let diff = *data == TrainingData::Diff;
                let key = (workload.name.to_owned(), diff, *history_bits);
                let memoized = lock_unpoisoned(&self.trained)
                    .profiles
                    .get(&key)
                    .map(Arc::clone);
                let profile = match memoized {
                    Some(profile) => profile,
                    None => {
                        // Collected outside the lock so concurrent
                        // workloads don't serialize; a racing duplicate
                        // computes the same pure function and the entry
                        // API keeps the first insertion.
                        let profile = Arc::new(if diff {
                            let train = self.store.train_compiled(workload)?;
                            TrainingProfile::collect_compiled(&train, *history_bits)
                        } else {
                            TrainingProfile::collect_compiled(compiled, *history_bits)
                        });
                        let mut cache = lock_unpoisoned(&self.trained);
                        Arc::clone(cache.profiles.entry(key).or_insert(profile))
                    }
                };
                let st_config = StaticTrainingConfig {
                    history_bits: *history_bits,
                    hrt: *hrt,
                    data: data.label().to_owned(),
                };
                Some(GangLane::StaticTraining(StaticTraining::with_profile(
                    st_config, &profile,
                )))
            }
            SchemeConfig::Profile => {
                let memoized = lock_unpoisoned(&self.trained)
                    .profilers
                    .get(workload.name)
                    .map(Arc::clone);
                let profiler = memoized.unwrap_or_else(|| {
                    let trained = Arc::new(ProfilePredictor::train_compiled(compiled));
                    let mut cache = lock_unpoisoned(&self.trained);
                    Arc::clone(
                        cache
                            .profilers
                            .entry(workload.name.to_owned())
                            .or_insert(trained),
                    )
                });
                Some(GangLane::Profile((*profiler).clone()))
            }
            // Every remaining scheme trains nothing.
            other => Some(GangLane::from_config(other, None)),
        }
    }

    /// The sequential reference path for
    /// [`accuracy_table`](Self::accuracy_table): one (config, workload)
    /// simulation at a time, in order — one full trace walk per cell.
    /// Exists so tests can assert the gang engine and the worker pool
    /// change nothing observable, and as the throughput bench's
    /// per-config baseline.
    pub fn accuracy_table_sequential(&self, title: &str, configs: &[SchemeConfig]) -> Report {
        let mut results: HashMap<(usize, usize), Cell> = HashMap::new();
        for (ci, config) in configs.iter().enumerate() {
            for (wi, workload) in self.workloads.iter().enumerate() {
                let accuracy = self.run_one(config, workload).map(|r| r.accuracy());
                results.insert((ci, wi), Cell::from(accuracy));
            }
        }
        self.account_cells(configs, &results, &std::collections::HashSet::new());
        self.render_accuracy(title, configs, &results)
    }

    /// Renders per-cell outcomes (keyed by config and workload index)
    /// into the paper-style table, appending the three geometric-mean
    /// columns.
    fn render_accuracy(
        &self,
        title: &str,
        configs: &[SchemeConfig],
        results: &HashMap<(usize, usize), Cell>,
    ) -> Report {
        let _span = metrics::span(Phase::ReportRender);
        let mut report = Report::new(title, self.accuracy_columns());
        for (ci, config) in configs.iter().enumerate() {
            let mut values: Vec<Cell> = (0..self.workloads.len())
                .map(|wi| results.get(&(ci, wi)).cloned().unwrap_or(Cell::Blank))
                .collect();
            let mean_over = |kind: Option<WorkloadKind>| -> Option<f64> {
                let selected: Vec<f64> = self
                    .workloads
                    .iter()
                    .zip(&values)
                    .filter(|(w, _)| kind.is_none_or(|k| w.kind == k))
                    .map(|(_, v)| v.value())
                    .collect::<Option<Vec<f64>>>()?;
                geometric_mean(&selected)
            };
            // The paper does not graph averages for schemes with
            // incomplete data (Diff training): a missing — or failed —
            // benchmark yields a missing mean.
            let int_mean = mean_over(Some(WorkloadKind::Integer));
            let fp_mean = mean_over(Some(WorkloadKind::FloatingPoint));
            let tot_mean = mean_over(None);
            values.push(Cell::from(int_mean));
            values.push(Cell::from(fp_mean));
            values.push(Cell::from(tot_mean));
            report.push_cells(config.label(), values);
        }
        report
    }

    // ----- the paper's tables and figures -----

    /// Runs one registered sweep (see [`sweep_specs`]): the accuracy
    /// table over its configurations, with its footnotes appended.
    /// `tlat sweep <name>` — plain, sharded, and supervised alike —
    /// routes through here, so every mode renders identical bytes.
    pub fn run_sweep(&self, spec: &SweepSpec) -> Report {
        let mut report = self.accuracy_table(spec.title, &spec.configs);
        for note in &spec.notes {
            report.push_note(*note);
        }
        report
    }

    /// Table 1: static conditional branches per benchmark.
    pub fn table1(&self) -> Report {
        let traces = self.test_traces();
        let mut report = Report::new_raw(
            "Table 1: static conditional branches per benchmark",
            vec!["measured".to_owned(), "paper".to_owned()],
        );
        for (w, trace) in self.workloads.iter().zip(&traces) {
            let measured = trace.stats().static_conditional_branches;
            report.push_row(
                w.name,
                vec![Some(measured as f64), Some(w.paper_static_branches as f64)],
            );
        }
        report.push_note(
            "measured = distinct conditional sites exercised in the traced window; \
             paper = Table 1 of Yeh & Patt"
                .to_owned(),
        );
        report
    }

    /// Figure 3: dynamic instruction mix per benchmark.
    pub fn figure3(&self) -> Report {
        let traces = self.test_traces();
        let classes = [
            InstClass::IntAlu,
            InstClass::FpAlu,
            InstClass::Mem,
            InstClass::Branch,
            InstClass::Other,
        ];
        let mut report = Report::new(
            "Figure 3: distribution of dynamic instructions",
            classes.iter().map(|c| c.label().to_owned()).collect(),
        );
        for (w, trace) in self.workloads.iter().zip(&traces) {
            let mix = *trace.inst_mix();
            report.push_row(
                w.name,
                classes.iter().map(|c| Some(mix.fraction(*c))).collect(),
            );
        }
        report
            .push_note("paper: ~24 % branches in integer codes, ~5 % in floating point".to_owned());
        report
    }

    /// Figure 4: dynamic branch-class distribution per benchmark.
    pub fn figure4(&self) -> Report {
        let traces = self.test_traces();
        let mut report = Report::new(
            "Figure 4: distribution of dynamic branch instructions",
            BranchClass::ALL
                .iter()
                .map(|c| c.label().to_owned())
                .collect(),
        );
        for (w, trace) in self.workloads.iter().zip(&traces) {
            let dist = trace.stats().class_distribution;
            report.push_row(
                w.name,
                BranchClass::ALL
                    .iter()
                    .map(|c| Some(dist.fraction(*c)))
                    .collect(),
            );
        }
        report.push_note("paper: ~80 % of dynamic branches are conditional".to_owned());
        report
    }

    /// Figure 5: Two-Level Adaptive Training with different pattern
    /// automata.
    pub fn figure5(&self) -> Report {
        self.run_sweep(&sweep_spec("fig5").expect("registered sweep"))
    }

    /// Figure 6: Two-Level Adaptive Training with different HRT
    /// implementations.
    pub fn figure6(&self) -> Report {
        self.run_sweep(&sweep_spec("fig6").expect("registered sweep"))
    }

    /// Figure 7: Two-Level Adaptive Training with different history
    /// register lengths.
    pub fn figure7(&self) -> Report {
        self.run_sweep(&sweep_spec("fig7").expect("registered sweep"))
    }

    /// Figure 8: Static Training schemes (Same vs Diff data sets).
    pub fn figure8(&self) -> Report {
        self.run_sweep(&sweep_spec("fig8").expect("registered sweep"))
    }

    /// Figure 9: Lee & Smith BTB designs and the static schemes.
    pub fn figure9(&self) -> Report {
        self.run_sweep(&sweep_spec("fig9").expect("registered sweep"))
    }

    /// Figure 10: the head-to-head comparison of schemes at similar
    /// cost (512-entry 4-way AHRT).
    pub fn figure10(&self) -> Report {
        self.run_sweep(&sweep_spec("fig10").expect("registered sweep"))
    }

    /// Extension: the two-level taxonomy (GAg/GAs/PAg/PAs) at matched
    /// cost, over the suite.
    pub fn taxonomy(&self) -> Report {
        self.run_sweep(&sweep_spec("taxonomy").expect("registered sweep"))
    }

    /// Extension: CPI under a pipeline cost model, per scheme (the
    /// paper's motivation made quantitative).
    pub fn performance_table(&self, model: crate::cost::PipelineModel) -> Report {
        let configs = vec![
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::st(HrtConfig::ahrt(512), 12, TrainingData::Same),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
            SchemeConfig::Profile,
            SchemeConfig::AlwaysTaken,
        ];
        let traces = self.test_traces();
        let mut report = Report::new_raw(
            format!(
                "Extension: cycles per instruction (base CPI {}, {}-cycle flush)",
                model.base_cpi, model.flush_penalty
            ),
            self.workloads.iter().map(|w| w.name.to_owned()).collect(),
        );
        for config in &configs {
            let mut row = Vec::with_capacity(self.workloads.len());
            for (w, trace) in self.workloads.iter().zip(&traces) {
                let cell = self.run_one(config, w).map(|result| {
                    let stats = trace.stats();
                    let cond_fraction = if trace.dynamic_instructions() == 0 {
                        0.0
                    } else {
                        stats.dynamic_conditional_branches as f64
                            / trace.dynamic_instructions() as f64
                    };
                    // Raw-format reports print integers; scale CPI by
                    // 100 so two decimals survive (documented in the
                    // note below).
                    model.cpi(cond_fraction, result.conditional.miss_rate()) * 100.0
                });
                row.push(cell);
            }
            report.push_row(config.label(), row);
        }
        report.push_note("values are CPI × 100 (e.g. 126 = 1.26 cycles/instruction)".to_owned());
        report
    }

    /// Table 3: training and testing data sets.
    pub fn table3(&self) -> String {
        let mut out = String::from("=== Table 3: training and testing data sets ===\n");
        for w in &self.workloads {
            let train = w
                .train_input()
                .map(|d| d.name.to_owned())
                .unwrap_or_else(|| "NA".to_owned());
            out.push_str(&format!(
                "{:<12} train: {:<22} test: {}\n",
                w.name,
                train,
                w.test_input().name
            ));
        }
        out
    }

    /// Table 2: the configuration registry.
    pub fn table2(&self) -> String {
        let mut out =
            String::from("=== Table 2: configurations of simulated branch predictors ===\n");
        for config in crate::config::table2() {
            out.push_str(&config.label());
            out.push('\n');
        }
        out
    }
}

/// One named, CLI-addressable sweep: title, configuration rows, and
/// report footnotes.
///
/// The registry ([`sweep_specs`]) is what lets every execution mode —
/// `tlat fig N`, `tlat sweep <name>`, a `--shard i/N` worker, and the
/// `--workers N` supervisor — agree on exactly the same sweep: same
/// title and configs means same journal fingerprint means same journal
/// directory, which is the whole coordination mechanism. The same
/// identity keys `tlat serve`'s request coalescing (see
/// [`Harness::sweep_fingerprint`]).
///
/// # Examples
///
/// ```
/// use tlat_sim::sweep_spec;
///
/// let spec = sweep_spec("fig10").expect("fig10 is registered");
/// assert_eq!(spec.name, "fig10");
/// assert!(spec.title.starts_with("Figure 10"));
/// assert!(!spec.configs.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Short CLI name (`"fig10"`).
    pub name: &'static str,
    /// Full report title — also seeds the journal fingerprint.
    pub title: &'static str,
    /// Configuration rows, in paper order.
    pub configs: Vec<SchemeConfig>,
    /// Footnotes appended to the rendered report.
    pub notes: Vec<&'static str>,
}

/// Every registered sweep, in paper order: `fig5` … `fig10` and the
/// `taxonomy` extension.
///
/// This is the request namespace of `tlat serve`'s `GET /sweeps` and
/// `POST /sweep/<name>` endpoints as well as the batch CLI's
/// `tlat sweep <name>` argument.
///
/// # Examples
///
/// ```
/// let names: Vec<&str> = tlat_sim::sweep_specs().iter().map(|s| s.name).collect();
/// assert!(names.contains(&"fig5") && names.contains(&"fig10"));
/// ```
pub fn sweep_specs() -> Vec<SweepSpec> {
    vec![
        SweepSpec {
            name: "fig5",
            title: "Figure 5: AT schemes using different state transition automata",
            configs: [
                AutomatonKind::A2,
                AutomatonKind::A3,
                AutomatonKind::A4,
                AutomatonKind::LastTime,
            ]
            .into_iter()
            .map(|a| SchemeConfig::at(HrtConfig::ahrt(512), 12, a))
            .collect(),
            notes: vec!["paper: A2/A3/A4 ≈ 97 %, Last-Time about 1 % lower"],
        },
        SweepSpec {
            name: "fig6",
            title: "Figure 6: AT schemes using different history register table implementations",
            configs: [
                HrtConfig::Ideal,
                HrtConfig::ahrt(512),
                HrtConfig::hhrt(512),
                HrtConfig::ahrt(256),
                HrtConfig::hhrt(256),
            ]
            .into_iter()
            .map(|h| SchemeConfig::at(h, 12, AutomatonKind::A2))
            .collect(),
            notes: vec!["paper ordering: IHRT > AHRT(512) > HHRT(512) > AHRT(256) > HHRT(256)"],
        },
        SweepSpec {
            name: "fig7",
            title: "Figure 7: AT schemes using history registers of different lengths",
            configs: [12u8, 10, 8, 6]
                .into_iter()
                .map(|bits| SchemeConfig::at(HrtConfig::ahrt(512), bits, AutomatonKind::A2))
                .collect(),
            notes: vec![
                "paper: ~0.5 % accuracy gained per 2 extra history bits until the asymptote",
            ],
        },
        SweepSpec {
            name: "fig8",
            title: "Figure 8: prediction accuracy of Static Training schemes",
            configs: [
                (HrtConfig::Ideal, TrainingData::Same),
                (HrtConfig::ahrt(512), TrainingData::Same),
                (HrtConfig::hhrt(512), TrainingData::Same),
                (HrtConfig::Ideal, TrainingData::Diff),
                (HrtConfig::ahrt(512), TrainingData::Diff),
                (HrtConfig::hhrt(512), TrainingData::Diff),
            ]
            .into_iter()
            .map(|(h, d)| SchemeConfig::st(h, 12, d))
            .collect(),
            notes: vec![
                "Diff rows are blank for eqntott/matrix300/fpppp/tomcatv (no alternative \
                 data sets, as in the paper); means are therefore not reported",
                "paper: ST(Same,IHRT) ≈ 97 %; Diff drops ~1 % on gcc/espresso, ~5 % on li",
            ],
        },
        SweepSpec {
            name: "fig9",
            title: "Figure 9: Branch Target Buffer designs, BTFN, Always Taken, and Profiling",
            configs: vec![
                SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::A2),
                SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
                SchemeConfig::ls(HrtConfig::hhrt(512), AutomatonKind::A2),
                SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::LastTime),
                SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
                SchemeConfig::ls(HrtConfig::hhrt(512), AutomatonKind::LastTime),
                SchemeConfig::Profile,
                SchemeConfig::Btfn,
                SchemeConfig::AlwaysTaken,
            ],
            notes: vec![
                "paper: LS/A2 tops out ≈ 93 % (IHRT), LT ≈ 4 % lower, profiling ≈ 92.5 %, \
                 BTFN ≈ 69 % mean (but ~98 % on loop-bound FP), Always Taken ≈ 60 %",
            ],
        },
        SweepSpec {
            name: "fig10",
            title: "Figure 10: comparison of branch prediction schemes",
            configs: vec![
                SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
                SchemeConfig::st(HrtConfig::ahrt(512), 12, TrainingData::Same),
                SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
                SchemeConfig::Profile,
                SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
            ],
            notes: vec![
                "paper ordering: AT ≈ 97 % > ST (1–5 % lower) > LS/A2 ≈ profiling ≈ 92.5 % \
                 > last-time ≈ 89 %",
            ],
        },
        SweepSpec {
            name: "taxonomy",
            title: "Extension: the two-level predictor taxonomy (Yeh & Patt, ISCA'92)",
            configs: crate::config::taxonomy(),
            notes: vec![
                "PAg is the paper's scheme; global-history variants trade \
                 per-branch periodicity for cross-branch correlation",
            ],
        },
    ]
}

/// Looks up one registered sweep by its CLI name.
pub fn sweep_spec(name: &str) -> Option<SweepSpec> {
    sweep_specs().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness() -> Harness {
        // Small budget keeps unit tests quick; the shapes already hold.
        Harness::new(20_000)
    }

    #[test]
    fn run_one_skips_diff_without_training_set() {
        let h = harness();
        let eqntott = tlat_workloads::by_name("eqntott").unwrap();
        let diff = SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Diff);
        assert!(h.run_one(&diff, &eqntott).is_none());
        let same = SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Same);
        assert!(h.run_one(&same, &eqntott).is_some());
    }

    #[test]
    fn accuracy_table_has_all_cells() {
        let h = harness();
        let configs = vec![SchemeConfig::AlwaysTaken, SchemeConfig::Btfn];
        let report = h.accuracy_table("smoke", &configs);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.columns.len(), 12); // 9 benchmarks + 3 means
        for row in &report.rows {
            assert!(row.values.iter().all(|v| v.value().is_some()));
        }
    }

    #[test]
    fn parallel_and_sequential_reports_are_byte_identical() {
        let h = harness();
        let configs = vec![
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Diff),
            SchemeConfig::Btfn,
        ];
        let parallel = h.accuracy_table("determinism", &configs);
        let sequential = h.accuracy_table_sequential("determinism", &configs);
        assert_eq!(parallel.to_string(), sequential.to_string());
    }

    #[test]
    fn gang_engine_and_pool_match_sequential_byte_for_byte() {
        // Every registered sweep, so every lane kind the harness builds
        // is pinned to the per-config reference engine — fig8's Diff
        // rows included, whose `None` cells sit on the four Table 3
        // exclusions.
        let h = harness();
        for spec in sweep_specs() {
            let sequential = h
                .accuracy_table_sequential(spec.title, &spec.configs)
                .to_string();
            for threads in [1, 4] {
                let ganged = h
                    .accuracy_table_on(spec.title, &spec.configs, threads)
                    .to_string();
                assert_eq!(ganged, sequential, "{} with threads={threads}", spec.name);
            }
            if spec.name == "fig8" {
                assert!(sequential.contains('—'), "the Diff rows have blank cells");
            }
        }
    }

    /// Every registered sweep's lanes, built as the harness builds
    /// them, walk each of the nine test streams to the same results and
    /// adopted table statistics whether the walk credits long runs'
    /// tails or steps every event, and under each rewrite of the plan
    /// the walk chooses: every associative lane probing privately,
    /// every one reading a shared log (even a lone one), and no
    /// tournament deriving. The budget is `TLAT_BRANCH_LIMIT` when set
    /// (the CI script runs this at the default 500,000) and 20,000
    /// otherwise.
    #[test]
    fn collapsing_long_runs_changes_nothing_on_the_real_streams() {
        use crate::engine::SimOptions;
        use crate::gang::tests::{lane_reports, walks_under_rewritten_plans};
        use crate::gang::{gang_simulate_compiled, without_collapsing};
        let budget = std::env::var("TLAT_BRANCH_LIMIT")
            .ok()
            .and_then(|raw| raw.parse().ok())
            .unwrap_or(20_000);
        let h = Harness::new(budget);
        for workload in &h.workloads {
            let compiled = h.store.test_compiled(workload);
            if workload.name == "matrix300" {
                assert!(!compiled.long_runs().is_empty(), "matrix300 has long runs");
            }
            for spec in sweep_specs() {
                let lanes = || -> Vec<GangLane> {
                    spec.configs
                        .iter()
                        .filter_map(|config| h.build_lane(config, workload, &compiled))
                        .collect()
                };
                let walk = || {
                    let mut lanes = lanes();
                    let options = SimOptions::default();
                    let results = gang_simulate_compiled(&mut lanes, &compiled, None, options);
                    lane_reports(&results, &lanes)
                };
                let collapsed = walk();
                let stepped = without_collapsing(walk);
                let (sweep, on) = (spec.name, workload.name);
                assert_eq!(collapsed, stepped, "{sweep} on {on}");
                for (what, rewritten) in walks_under_rewritten_plans(lanes, &compiled) {
                    assert_eq!(rewritten, collapsed, "{sweep} on {on}, {what} plan");
                }
            }
        }
    }

    #[test]
    fn sweeps_never_make_record_traces_resident() {
        // Every sweep walks compiled streams alone: neither a cold
        // in-memory harness nor one over a warm disk cache may leave a
        // record trace in the store, test or training.
        let budget = 3_000;
        let run_all = |h: &Harness| -> Vec<String> {
            sweep_specs()
                .iter()
                .map(|spec| h.run_sweep(spec).to_string())
                .collect()
        };
        let memory = Harness::new(budget);
        let reports = run_all(&memory);
        assert_eq!(memory.store().resident_records(), 0, "in-memory harness");
        let dir = std::env::temp_dir().join(format!("tlat-no-records-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Harness::over(TraceStore::new(budget).with_disk_cache(&dir)).prewarm();
        let warm = Harness::over(TraceStore::new(budget).with_disk_cache(&dir));
        assert_eq!(run_all(&warm), reports);
        assert_eq!(warm.store().generations(), 0, "the cache was warm");
        assert_eq!(
            warm.store().resident_records(),
            0,
            "harness over a warm cache"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fig10_report_is_identical_with_and_without_the_compiled_path() {
        // ISSUE 5 acceptance: the Figure 10 sweep renders byte-identical
        // whether lanes ride the compiled event stream (the gang path)
        // or the per-config reference engine (never compiled).
        let h = harness();
        let configs = vec![
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::st(HrtConfig::ahrt(512), 12, TrainingData::Same),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
            SchemeConfig::Profile,
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
        ];
        let title = "Figure 10: comparison of branch prediction schemes";
        let compiled = h.accuracy_table(title, &configs).to_string();
        let reference = h.accuracy_table_sequential(title, &configs).to_string();
        assert_eq!(compiled, reference);
    }

    #[test]
    fn always_taken_is_roughly_the_taken_rate() {
        let h = harness();
        let report = h.accuracy_table("at", &[SchemeConfig::AlwaysTaken]);
        let mean = report.cell("Always Taken", "Tot G Mean").unwrap();
        assert!((0.3..0.9).contains(&mean), "mean {mean}");
    }

    #[test]
    fn table1_reports_every_benchmark() {
        let h = harness();
        let t = h.table1();
        assert_eq!(t.rows.len(), 9);
    }

    #[test]
    fn table2_and_table3_render() {
        let h = harness();
        assert!(h.table2().contains("AT(AHRT(512,12SR)"));
        assert!(h.table3().contains("eight-queens"));
    }
}
