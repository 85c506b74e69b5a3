//! Seeded chaos scenarios: one `u64` seed → a complete, replayable
//! adversarial configuration of the real PSgL pipeline.
//!
//! [`Scenario::from_seed`] expands a seed into a data graph, a pattern, a
//! distribution strategy, and a draw from the full chaos fault menu
//! (scheduler reorderings, chunk-pool exhaustion, partition skew, exchange
//! shuffles, suspend/resume, forced preemption, disk pressure).
//! [`Scenario::run`] executes the scenario through
//! [`psgl_core::run`] under the [`SimExecutor`] and checks
//! every invariant plus oracle count parity. Failures carry the seed and
//! the expanded configuration, so `Scenario::from_seed(seed).run()` is the
//! whole reproduction recipe.

use crate::fingerprint::fingerprint_run;
use crate::invariants::{self, Violation};
use crate::oracle;
use crate::sched::{SimExecutor, SimRng};
use psgl_core::runner::{ListingResult, RunnerHooks};
use psgl_core::stats::RunStats;
use psgl_core::{
    list_subgraphs_prepared_with, run, CancelToken, Checkpoint, ListingEnd, PsglConfig, PsglShared,
    RunRequest, SpillConfig, Start, Stop, Strategy,
};
use psgl_graph::generators::erdos_renyi_gnm;
use psgl_graph::hash::hash_u64;
use psgl_graph::partition::HashPartitioner;
use psgl_pattern::{catalog, Pattern};
use std::fmt;

/// The pattern sub-catalog chaos scenarios draw from (small enough for the
/// centralized oracle, diverse in automorphism structure: |Aut| = 6, 8, 2).
pub fn chaos_patterns() -> [Pattern; 3] {
    [catalog::triangle(), catalog::square(), catalog::tailed_triangle()]
}

/// Disk behavior drawn for the spill fault class: how the disk misbehaves
/// while the scenario is re-run memory-bounded (tight live-chunk cap,
/// spill tier enabled).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpillFault {
    /// Healthy disk: spill and re-admission must be invisible in the
    /// output (instance-multiset parity with the uncapped reference).
    Healthy,
    /// Every chunk write stalls (saturated disk); slow but correct.
    SlowWrites,
    /// The first write fails (ENOSPC mid-spill): the engine must degrade
    /// to resident execution — grow past the cap — and still get the
    /// right answer.
    WriteFailure,
    /// A tiny spill-byte budget: early segments land on disk, then the
    /// store reports exhaustion and later evictions degrade to resident.
    ByteCap,
    /// Segment headers come back corrupted: reading one must abort the run
    /// with a typed spill error, never feed wrong tuples onward.
    CorruptRead,
    /// A segment read resumed in a later range group comes back truncated:
    /// same contract as [`SpillFault::CorruptRead`].
    ShortRead,
}

impl SpillFault {
    /// Faults where re-admission fails, so a run that actually spilled
    /// must abort with a typed error instead of completing.
    fn reads_fail(self) -> bool {
        matches!(self, SpillFault::CorruptRead | SpillFault::ShortRead)
    }
}

/// A fully-expanded chaos configuration; every field is derived from
/// [`Scenario::from_seed`]'s seed, so the seed alone replays the run.
#[derive(Clone)]
pub struct Scenario {
    /// The originating seed (the replay handle).
    pub seed: u64,
    /// Pattern to list.
    pub pattern: Pattern,
    /// Display name of the distribution strategy (from `paper_variants`).
    pub strategy_name: &'static str,
    /// The distribution strategy itself.
    pub strategy: Strategy,
    /// BSP worker count.
    pub workers: usize,
    /// Data-graph vertex count (Erdős–Rényi G(n, m)).
    pub graph_vertices: usize,
    /// Data-graph edge count.
    pub graph_edges: usize,
    /// Generator seed of the data graph.
    pub graph_seed: u64,
    /// Live-chunk cap on the message pool (exhaustion fault).
    pub max_live_chunks: Option<u64>,
    /// Seed for per-destination exchange reordering.
    pub exchange_shuffle_seed: Option<u64>,
    /// Per-mille of vertices force-routed to worker 0 (partition skew).
    pub skew_per_mille: u16,
    /// `PsglConfig::seed` for the run (distributor RNG, partitioner salt).
    pub run_seed: u64,
    /// Cancellation fault: suspend the run with a checkpoint at this
    /// superstep, then resume and require exact parity with the
    /// uninterrupted run (`None` = fault not drawn).
    pub cancel_at_superstep: Option<u32>,
    /// Preemption fault: re-run the scenario through the preemptive
    /// scheduler's slice seam ([`Stop::slice`]), forcing a
    /// suspend at every `n`-superstep boundary with a wire round-trip of
    /// each checkpoint, and require exact parity with the uninterrupted
    /// run (`None` = fault not drawn).
    pub preempt_every: Option<u32>,
    /// Disk-pressure fault: re-run the scenario memory-bounded — a tight
    /// live-chunk cap with the disk spill tier enabled under the drawn
    /// disk behavior — and require instance-multiset parity (benign
    /// variants) or a typed spill abort (read faults). `None` = fault not
    /// drawn.
    pub spill_fault: Option<SpillFault>,
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("seed", &self.seed)
            .field("pattern", &self.pattern.name())
            .field("strategy", &self.strategy_name)
            .field("workers", &self.workers)
            .field(
                "graph",
                &format_args!(
                    "G({}, {}) seed {}",
                    self.graph_vertices, self.graph_edges, self.graph_seed
                ),
            )
            .field("max_live_chunks", &self.max_live_chunks)
            .field("exchange_shuffle_seed", &self.exchange_shuffle_seed)
            .field("skew_per_mille", &self.skew_per_mille)
            .field("run_seed", &self.run_seed)
            .field("cancel_at_superstep", &self.cancel_at_superstep)
            .field("preempt_every", &self.preempt_every)
            .field("spill_fault", &self.spill_fault)
            .finish()
    }
}

impl Scenario {
    /// Expands `seed` into a full chaos configuration, drawing the pattern
    /// and strategy from the seed too.
    pub fn from_seed(seed: u64) -> Scenario {
        let mut rng = SimRng(seed ^ 0xC4A0_5C4A_05C4_A05C);
        let patterns = chaos_patterns();
        let pattern = patterns[rng.below(patterns.len() as u64) as usize].clone();
        let (strategy_name, strategy) = Strategy::paper_variants()[rng.below(5) as usize % 5];
        Self::derive(seed, pattern, strategy_name, strategy, &mut rng)
    }

    /// Like [`Scenario::from_seed`] but with the pattern and strategy
    /// pinned — the chaos suite uses this to sweep the full
    /// pattern × strategy grid while the rest of the fault menu still
    /// varies with the seed.
    pub fn from_seed_with(
        seed: u64,
        pattern: Pattern,
        strategy_name: &'static str,
        strategy: Strategy,
    ) -> Scenario {
        let mut rng = SimRng(seed ^ 0xC4A0_5C4A_05C4_A05C);
        // Burn the two draws from_seed would have consumed so the fault
        // menu for a given seed is identical either way.
        rng.below(chaos_patterns().len() as u64);
        rng.below(5);
        Self::derive(seed, pattern, strategy_name, strategy, &mut rng)
    }

    fn derive(
        seed: u64,
        pattern: Pattern,
        strategy_name: &'static str,
        strategy: Strategy,
        rng: &mut SimRng,
    ) -> Scenario {
        // A small pool of distinct graphs (rather than one per seed) keeps
        // the oracle cache effective across a big suite.
        let graph_seed = rng.below(8);
        let graph_vertices = 30 + 3 * graph_seed as usize;
        let graph_edges = 3 * graph_vertices;
        let workers = 2 + rng.below(4) as usize;
        rng.skip_retired_knobs();
        let max_live_chunks = if rng.below(3) == 0 { Some(1 + rng.below(8)) } else { None };
        let exchange_shuffle_seed = if rng.below(2) == 0 { Some(rng.next_u64()) } else { None };
        let skew_per_mille = [0u16, 200, 500, 800][rng.below(4) as usize];
        rng.below(3); // a fourth retired knob
        let run_seed = rng.next_u64();
        // Drawn last so every earlier field keeps the exact stream it had
        // before this fault class existed — pinned corpus seeds still
        // expand to the same configurations, merely gaining (or not) a
        // suspend/resume on top.
        let cancel_at_superstep =
            if rng.below(4) == 0 { Some(1 + rng.below(3) as u32) } else { None };
        let preempt_every = if rng.below(3) == 0 { Some(1 + rng.below(2) as u32) } else { None };
        // Newest fault class, so newest draw: anything drawn after this
        // point would shift the stream for seeds pinned before it existed.
        let spill_fault = if rng.below(3) == 0 {
            Some(
                [
                    SpillFault::Healthy,
                    SpillFault::SlowWrites,
                    SpillFault::WriteFailure,
                    SpillFault::ByteCap,
                    SpillFault::CorruptRead,
                    SpillFault::ShortRead,
                ][rng.below(6) as usize],
            )
        } else {
            None
        };
        Scenario {
            seed,
            pattern,
            strategy_name,
            strategy,
            workers,
            graph_vertices,
            graph_edges,
            graph_seed,
            max_live_chunks,
            exchange_shuffle_seed,
            skew_per_mille,
            run_seed,
            cancel_at_superstep,
            preempt_every,
            spill_fault,
        }
    }

    /// Runner hooks for one execution under `executor`; each run gets its
    /// own (identically-seeded) partitioner, so multiple runs of the same
    /// scenario see the same vertex placement.
    fn hooks<'a>(
        &self,
        executor: &'a SimExecutor,
        tracer: Option<&'a psgl_obs::Tracer>,
    ) -> RunnerHooks<'a> {
        let partitioner = (self.skew_per_mille > 0).then(|| {
            HashPartitioner::with_skew(self.workers, hash_u64(self.run_seed), self.skew_per_mille)
        });
        RunnerHooks {
            executor: Some(executor),
            partitioner,
            max_live_chunks: self.max_live_chunks,
            exchange_shuffle_seed: self.exchange_shuffle_seed,
            chunk_capacity: None,
            spill: None,
            tracer,
        }
    }

    /// Executes the scenario once under the sim scheduler and checks every
    /// invariant; `Ok` carries the replay fingerprint and trace hash. The
    /// failure is boxed: it carries the whole scenario for replay, and the
    /// happy path should not pay its size.
    pub fn run(&self) -> Result<SimReport, Box<SimFailure>> {
        // A seeded tracer by default: logical timestamps, deterministic
        // payloads — tracing must not perturb corpus fingerprints.
        self.run_traced(&psgl_obs::Tracer::seeded(1024))
    }

    /// [`Scenario::run`] with a caller-supplied trace sink. On failure the
    /// tracer's flight recorder is dumped to disk (`PSGL_OBS_DIR`, or the
    /// temp dir) and the dump path rides on the [`SimFailure`].
    pub fn run_traced(&self, tracer: &psgl_obs::Tracer) -> Result<SimReport, Box<SimFailure>> {
        self.run_inner(tracer).map_err(|mut failure| {
            failure.flight_recorder = tracer.recorder().dump_on_failure("chaos-invariant");
            failure
        })
    }

    fn run_inner(&self, tracer: &psgl_obs::Tracer) -> Result<SimReport, Box<SimFailure>> {
        let graph = erdos_renyi_gnm(self.graph_vertices, self.graph_edges as u64, self.graph_seed)
            .expect("scenario graph parameters are always valid");
        let config = PsglConfig::with_workers(self.workers)
            .strategy(self.strategy)
            .seed(self.run_seed)
            .collect(true);
        let shared = PsglShared::prepare(&graph, &self.pattern, &config)
            .map_err(|e| self.failure(vec![], Some(e.to_string())))?;
        let executor = SimExecutor::new(self.seed);
        let hooks = self.hooks(&executor, Some(tracer));
        let result = list_subgraphs_prepared_with(&shared, &config, &hooks)
            .map_err(|e| self.failure(vec![], Some(e.to_string())))?;
        let oracle_count = oracle::count_cached(
            &graph,
            self.graph_vertices,
            self.graph_edges,
            self.graph_seed,
            &self.pattern,
        );
        let violations = invariants::check(&graph, &self.pattern, &result, oracle_count);
        if !violations.is_empty() {
            return Err(self.failure(violations, None));
        }
        let mut resumed_at = None;
        if let Some(deadline) = self.cancel_at_superstep {
            resumed_at =
                self.check_suspend_resume(&graph, &shared, &config, &result, deadline, tracer)?;
        }
        let mut preempted_slices = None;
        if let Some(every) = self.preempt_every {
            preempted_slices =
                self.check_preempt_resume(&graph, &shared, &config, &result, every, tracer)?;
        }
        let mut spilled_chunks = None;
        if let Some(fault) = self.spill_fault {
            spilled_chunks = self.check_spill(&graph, &shared, &config, &result, fault, tracer)?;
        }
        Ok(SimReport {
            instance_count: result.instance_count,
            oracle_count,
            fingerprint: fingerprint_run(&result),
            trace_hash: executor.trace_hash(),
            virtual_time: executor.virtual_time(),
            resumed_at,
            preempted_slices,
            spilled_chunks,
            stats: result.stats,
        })
    }

    /// The disk-pressure fault: re-run the scenario memory-bounded — the
    /// live-chunk cap clamped tight and the disk spill tier enabled under
    /// the drawn disk behavior. Benign variants (healthy disk, slow
    /// writes, ENOSPC on write, a tiny spill-byte budget) must complete
    /// with the exact instance multiset of the unbounded `reference` run:
    /// write-side failures degrade to resident execution, never a wrong
    /// answer. Read-side faults (corrupt or truncated blobs) must abort
    /// with a typed spill error if the run spilled at all.
    fn check_spill(
        &self,
        graph: &psgl_graph::DataGraph,
        shared: &PsglShared<'_>,
        config: &PsglConfig,
        reference: &ListingResult,
        fault: SpillFault,
        tracer: &psgl_obs::Tracer,
    ) -> Result<Option<u64>, Box<SimFailure>> {
        let divergence = |msg: String| self.failure(vec![], Some(format!("spill: {msg}")));
        let executor = SimExecutor::new(self.seed);
        let mut hooks = self.hooks(&executor, Some(tracer));
        // Fine-grained chunks and a two-chunk budget: on these small
        // graphs that is genuinely memory-starved, so eviction is common.
        hooks.chunk_capacity = Some(8);
        hooks.max_live_chunks = Some(2);
        let mut spill = SpillConfig::in_temp();
        match fault {
            SpillFault::Healthy => {}
            SpillFault::SlowWrites => spill.faults.slow_write_per_chunk_us = 50,
            SpillFault::WriteFailure => spill.faults.fail_write_after_bytes = Some(0),
            SpillFault::ByteCap => {
                // Room for 24 tuples, each a vertex id and a Gpsi at the
                // run's message width (4W + 5 bytes): two eight-tuple
                // chunks land on disk with their framing, then the store
                // reports exhaustion.
                let width = psgl_core::gpsi::message_width(self.pattern.num_vertices());
                spill.max_spill_bytes = Some(24 * (4 + 4 * width as u64 + 5));
            }
            SpillFault::CorruptRead => spill.faults.corrupt_read = true,
            SpillFault::ShortRead => spill.faults.short_read = true,
        }
        hooks.spill = Some(spill);
        let result = match list_subgraphs_prepared_with(shared, config, &hooks) {
            Ok(r) => r,
            Err(e) if fault.reads_fail() => {
                // The contract for read faults: a clean, typed abort.
                let msg = e.to_string();
                return if msg.contains("spill") {
                    Ok(None)
                } else {
                    Err(divergence(format!(
                        "read fault aborted without a typed spill error: {msg}"
                    )))
                };
            }
            Err(e) => return Err(divergence(e.to_string())),
        };
        // Reaching here with a read fault means the run never read a
        // segment back (or, for a short read, never resumed one); with a
        // write fault it means eviction degraded to resident growth. Either way the answer must be exactly the reference's.
        let violations = invariants::check(graph, &self.pattern, &result, reference.instance_count);
        if !violations.is_empty() {
            return Err(self.failure(violations, Some("memory-bounded re-run".to_string())));
        }
        // Scenarios always run with collect(true), so the multisets exist.
        let mut want = reference.instances.clone().unwrap_or_default();
        let mut got = result.instances.clone().unwrap_or_default();
        want.sort_unstable();
        got.sort_unstable();
        if want != got {
            return Err(divergence(format!(
                "instance multiset diverged under the cap ({} vs {} instances)",
                got.len(),
                want.len()
            )));
        }
        let stats = &result.stats;
        if stats.readmitted_chunks != stats.spill_chunks {
            return Err(divergence(format!(
                "{} chunks spilled but {} re-admitted on a complete run",
                stats.spill_chunks, stats.readmitted_chunks
            )));
        }
        if fault == SpillFault::WriteFailure && stats.spill_chunks != 0 {
            return Err(divergence(format!(
                "{} chunks reported spilled although every write fails",
                stats.spill_chunks
            )));
        }
        Ok(Some(stats.spill_chunks))
    }

    /// The cancellation fault: run the same scenario again, suspend it
    /// with a checkpoint at `deadline` supersteps, push the checkpoint
    /// through its wire encoding, resume, and require exact parity with
    /// the uninterrupted `reference` run. The interrupted and resumed
    /// segments share one [`SimExecutor`], so the spliced schedule draws
    /// the exact stream the uninterrupted run drew — any divergence in the
    /// fingerprint or trace is a resume bug, not scheduler noise.
    fn check_suspend_resume(
        &self,
        graph: &psgl_graph::DataGraph,
        shared: &PsglShared<'_>,
        config: &PsglConfig,
        reference: &ListingResult,
        deadline: u32,
        tracer: &psgl_obs::Tracer,
    ) -> Result<Option<u32>, Box<SimFailure>> {
        let divergence = |msg: String| self.failure(vec![], Some(format!("suspend/resume: {msg}")));
        let executor = SimExecutor::new(self.seed);
        let hooks = self.hooks(&executor, Some(tracer));
        let token = CancelToken::with_superstep_deadline(deadline);
        let stop = Stop { cancel: Some(&token), checkpoint: true, slice: None };
        let request = RunRequest { hooks: hooks.clone(), stop, ..Default::default() };
        let end = run(shared, config, request).map_err(|e| divergence(e.to_string()))?;
        let (final_result, resume_superstep) = match end {
            // Short runs can finish before the deadline; the fault then
            // degrades to a plain replay of the reference run.
            ListingEnd::Complete(r) => (r, None),
            ListingEnd::Preempted { superstep, .. } => {
                return Err(divergence(format!("unsliced run preempted at superstep {superstep}")))
            }
            ListingEnd::Cancelled(c) => {
                if c.partial.stats.chunks_outstanding != 0 {
                    return Err(divergence(format!(
                        "{} pooled chunks leaked across the suspension",
                        c.partial.stats.chunks_outstanding
                    )));
                }
                let cp = c.checkpoint.ok_or_else(|| {
                    divergence(format!(
                        "soft cancel at superstep {} lost its checkpoint",
                        c.superstep
                    ))
                })?;
                let cp = Checkpoint::from_bytes(&cp.to_bytes())
                    .map_err(|e| divergence(format!("checkpoint wire round-trip: {e}")))?;
                let request =
                    RunRequest { start: Start::Checkpoint(cp), hooks, ..Default::default() };
                match run(shared, config, request).map_err(|e| divergence(e.to_string()))? {
                    ListingEnd::Complete(r) => (r, Some(c.superstep)),
                    _ => return Err(divergence("resumed run cancelled itself".to_string())),
                }
            }
        };
        let violations =
            invariants::check(graph, &self.pattern, &final_result, reference.instance_count);
        if !violations.is_empty() {
            return Err(self.failure(violations, Some("after suspend/resume".to_string())));
        }
        if final_result.instance_count != reference.instance_count {
            return Err(divergence(format!(
                "{} instances after resume vs {} uninterrupted",
                final_result.instance_count, reference.instance_count
            )));
        }
        // Under a pool cap the degraded allocation path may legally differ
        // between the spliced and uninterrupted runs, so bit-identity is
        // only demanded on uncapped scenarios; count parity holds always.
        if self.max_live_chunks.is_none() {
            let (want, got) = (fingerprint_run(reference), fingerprint_run(&final_result));
            if want != got {
                return Err(divergence(format!(
                    "fingerprint {got:016x} after resume vs {want:016x} uninterrupted"
                )));
            }
        }
        Ok(resume_superstep)
    }

    /// The preemption fault: run the same scenario through the preemptive
    /// scheduler's unit of work — a [`Stop::slice`] of `preempt_every`
    /// supersteps — pushing every intermediate
    /// checkpoint through its wire encoding, and require exact parity
    /// with the uninterrupted `reference` run. As with
    /// [`Scenario::check_suspend_resume`], all slices share one
    /// [`SimExecutor`], so the spliced schedule draws the stream the
    /// uninterrupted run drew; any divergence is a slicing bug.
    fn check_preempt_resume(
        &self,
        graph: &psgl_graph::DataGraph,
        shared: &PsglShared<'_>,
        config: &PsglConfig,
        reference: &ListingResult,
        every: u32,
        tracer: &psgl_obs::Tracer,
    ) -> Result<Option<u32>, Box<SimFailure>> {
        let divergence = |msg: String| self.failure(vec![], Some(format!("preempt/resume: {msg}")));
        let executor = SimExecutor::new(self.seed);
        let hooks = self.hooks(&executor, Some(tracer));
        let mut start = Start::Init;
        let mut preemptions = 0u32;
        let final_result = loop {
            let stop = Stop { slice: Some(every), ..Default::default() };
            let request = RunRequest { start, hooks: hooks.clone(), stop, ..Default::default() };
            match run(shared, config, request).map_err(|e| divergence(e.to_string()))? {
                ListingEnd::Complete(result) => break result,
                ListingEnd::Preempted { superstep, partial, checkpoint } => {
                    if partial.stats.chunks_outstanding != 0 {
                        return Err(divergence(format!(
                            "{} pooled chunks leaked across the preemption at superstep {superstep}",
                            partial.stats.chunks_outstanding
                        )));
                    }
                    let cp = Checkpoint::from_bytes(&checkpoint.to_bytes())
                        .map_err(|e| divergence(format!("checkpoint wire round-trip: {e}")))?;
                    start = Start::Checkpoint(cp);
                    preemptions += 1;
                    // Slices always advance by >= 1 superstep, so any real
                    // run preempts a bounded number of times.
                    if preemptions > 128 {
                        return Err(divergence("runaway slicing never completed".to_string()));
                    }
                }
                ListingEnd::Cancelled(c) => {
                    return Err(divergence(format!(
                        "sliced run cancelled itself ({}) at superstep {}",
                        c.reason, c.superstep
                    )));
                }
            }
        };
        let violations =
            invariants::check(graph, &self.pattern, &final_result, reference.instance_count);
        if !violations.is_empty() {
            return Err(self.failure(violations, Some("after preempt/resume".to_string())));
        }
        if final_result.instance_count != reference.instance_count {
            return Err(divergence(format!(
                "{} instances after {preemptions} preemptions vs {} uninterrupted",
                final_result.instance_count, reference.instance_count
            )));
        }
        // Same carve-out as suspend/resume: a capped chunk pool may
        // legally allocate differently across the splice.
        if self.max_live_chunks.is_none() {
            let (want, got) = (fingerprint_run(reference), fingerprint_run(&final_result));
            if want != got {
                return Err(divergence(format!(
                    "fingerprint {got:016x} after {preemptions} preemptions vs {want:016x} \
                     uninterrupted"
                )));
            }
        }
        Ok((preemptions > 0).then_some(preemptions))
    }

    fn failure(&self, violations: Vec<Violation>, error: Option<String>) -> Box<SimFailure> {
        Box::new(SimFailure { scenario: self.clone(), violations, error, flight_recorder: None })
    }
}

/// What a passing chaos run yields.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Instances PSgL found.
    pub instance_count: u64,
    /// Instances the centralized oracle found (equal, or the run failed).
    pub oracle_count: u64,
    /// Replay fingerprint over stats + output (see [`crate::fingerprint`]).
    pub fingerprint: u64,
    /// Hash of every scheduling decision the sim executor took.
    pub trace_hash: u64,
    /// Virtual-clock ticks the schedule consumed.
    pub virtual_time: u64,
    /// When the cancellation fault fired: the superstep the run was
    /// suspended at before resuming to exact parity (`None` when the fault
    /// was not drawn or the run finished before its deadline).
    pub resumed_at: Option<u32>,
    /// When the preemption fault fired: how many forced slice-boundary
    /// suspends the sliced re-run absorbed on its way to exact parity
    /// (`None` when the fault was not drawn or the run fit in one slice).
    pub preempted_slices: Option<u32>,
    /// When the disk-pressure fault fired with a benign disk: how many
    /// chunks the memory-bounded re-run evicted to disk on its way to
    /// instance-multiset parity (`None` when the fault was not drawn or a
    /// read fault aborted the re-run as required).
    pub spilled_chunks: Option<u64>,
    /// The run's full statistics.
    pub stats: RunStats,
}

/// A failed chaos run: the scenario (with its replay seed) plus what broke.
#[derive(Clone, Debug)]
pub struct SimFailure {
    /// The failing configuration; `Scenario::from_seed(scenario.seed)`
    /// reproduces it exactly.
    pub scenario: Scenario,
    /// Invariant violations observed (empty if the run errored instead).
    pub violations: Vec<Violation>,
    /// A run-level error (e.g. engine abort), if that is what failed.
    pub error: Option<String>,
    /// Where the run's flight-recorder dump landed (the last trace events
    /// before the failure, as JSON), when a tracer was attached.
    pub flight_recorder: Option<std::path::PathBuf>,
}

impl fmt::Display for SimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos scenario FAILED — replay with Scenario::from_seed({})",
            self.scenario.seed
        )?;
        writeln!(f, "  config: {:?}", self.scenario)?;
        if let Some(e) = &self.error {
            writeln!(f, "  error: {e}")?;
        }
        for v in &self.violations {
            writeln!(f, "  violation: {v}")?;
        }
        if let Some(path) = &self.flight_recorder {
            writeln!(f, "  flight recorder: {}", path.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for SimFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic_and_varied() {
        let a = Scenario::from_seed(42);
        let b = Scenario::from_seed(42);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // Across a seed range the fault menu actually varies.
        let scenarios: Vec<Scenario> = (0..64).map(Scenario::from_seed).collect();
        assert!(scenarios.iter().any(|s| s.max_live_chunks.is_some()));
        assert!(scenarios.iter().any(|s| s.skew_per_mille > 0));
        assert!(scenarios.iter().any(|s| s.exchange_shuffle_seed.is_some()));
        assert!(scenarios.iter().any(|s| s.cancel_at_superstep.is_some()));
        assert!(scenarios.iter().any(|s| s.cancel_at_superstep.is_none()));
        assert!(scenarios.iter().any(|s| s.preempt_every.is_some()));
        assert!(scenarios.iter().any(|s| s.preempt_every.is_none()));
        assert!(scenarios.iter().any(|s| s.spill_fault.is_some()));
        assert!(scenarios.iter().any(|s| s.spill_fault.is_none()));
        assert!(scenarios.iter().any(|s| matches!(s.spill_fault, Some(f) if f.reads_fail())));
        assert!(scenarios.iter().any(|s| matches!(s.spill_fault, Some(f) if !f.reads_fail())));
    }

    #[test]
    fn spill_fault_bounds_memory_without_changing_the_answer() {
        // Find seeds whose scenario draws the disk-pressure fault with a
        // benign disk and a run big enough to actually evict, and require
        // run() to pass — which internally asserts instance-multiset
        // parity between the memory-bounded and unbounded executions.
        let mut evicted = 0;
        for seed in 0..96 {
            let scenario = Scenario::from_seed(seed);
            if scenario.spill_fault.is_none() {
                continue;
            }
            let report = scenario.run().unwrap_or_else(|f| panic!("{f}"));
            evicted += u64::from(report.spilled_chunks.unwrap_or(0) > 0);
            if evicted >= 3 {
                return;
            }
        }
        panic!("seed range never exercised a disk eviction (only {evicted})");
    }

    #[test]
    fn cancel_fault_suspends_and_resumes_to_exact_parity() {
        // Find a seed whose scenario draws the cancellation fault with a
        // deadline the run actually reaches, and require run() to pass —
        // which internally asserts fingerprint-exact resume parity.
        let mut exercised = 0;
        for seed in 0..48 {
            let scenario = Scenario::from_seed(seed);
            if scenario.cancel_at_superstep.is_none() {
                continue;
            }
            let report = scenario.run().unwrap_or_else(|f| panic!("{f}"));
            exercised += u64::from(report.resumed_at.is_some());
            if exercised >= 3 {
                return;
            }
        }
        panic!("seed range never exercised a suspend/resume (only {exercised})");
    }

    #[test]
    fn preempt_fault_slices_and_resumes_to_exact_parity() {
        // Find seeds whose scenario draws the preemption fault with runs
        // long enough to actually hit a slice boundary, and require run()
        // to pass — which internally asserts fingerprint-exact parity
        // across every forced suspend.
        let mut exercised = 0;
        for seed in 0..64 {
            let scenario = Scenario::from_seed(seed);
            if scenario.preempt_every.is_none() {
                continue;
            }
            let report = scenario.run().unwrap_or_else(|f| panic!("{f}"));
            exercised += u64::from(report.preempted_slices.is_some());
            if exercised >= 3 {
                return;
            }
        }
        panic!("seed range never exercised a forced preemption (only {exercised})");
    }

    #[test]
    fn pinned_variant_shares_the_fault_menu_with_from_seed() {
        let free = Scenario::from_seed(7);
        let pinned =
            Scenario::from_seed_with(7, free.pattern.clone(), free.strategy_name, free.strategy);
        assert_eq!(free.workers, pinned.workers);
        assert_eq!(free.max_live_chunks, pinned.max_live_chunks);
        assert_eq!(free.graph_seed, pinned.graph_seed);
        assert_eq!(free.run_seed, pinned.run_seed);
        assert_eq!(free.skew_per_mille, pinned.skew_per_mille);
    }

    #[test]
    fn a_single_scenario_runs_clean() {
        let report = Scenario::from_seed(1).run().unwrap();
        assert_eq!(report.instance_count, report.oracle_count);
        assert!(report.virtual_time > 0);
    }

    #[test]
    fn seeded_tracing_is_deterministic_and_fingerprint_neutral() {
        // Two executions of the same scenario under two fresh seeded
        // tracers: the replay fingerprints AND the event streams (names,
        // payloads, logical timestamps) must be byte-identical — tracing
        // may observe a deterministic run, never perturb or smear it.
        let scenario = Scenario::from_seed(1);
        let t1 = psgl_obs::Tracer::seeded(1024);
        let t2 = psgl_obs::Tracer::seeded(1024);
        let r1 = scenario.run_traced(&t1).unwrap_or_else(|f| panic!("{f}"));
        let r2 = scenario.run_traced(&t2).unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(r1.fingerprint, r2.fingerprint);
        assert_eq!(r1.trace_hash, r2.trace_hash);
        let stream = |t: &psgl_obs::Tracer| -> Vec<String> {
            t.events().iter().map(|e| e.to_json()).collect()
        };
        let (ev1, ev2) = (stream(&t1), stream(&t2));
        assert!(!ev1.is_empty(), "a traced run emits superstep events");
        assert_eq!(ev1, ev2, "identical runs must produce identical event streams");
        // And the fingerprint matches the untraced default path.
        let plain = scenario.run().unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(plain.fingerprint, r1.fingerprint);
    }

    #[test]
    fn failed_run_dumps_the_flight_recorder() {
        // An oversized pattern fails in prepare — a run-level error, which
        // must leave a JSON flight-recorder dump behind and put its path
        // on the failure.
        let base = Scenario::from_seed(3);
        let doomed =
            Scenario::from_seed_with(3, catalog::cycle(13), base.strategy_name, base.strategy);
        let tracer = psgl_obs::Tracer::seeded(64);
        tracer.event("before_failure", &[]);
        let failure = doomed.run_traced(&tracer).expect_err("cycle(13) exceeds the Gpsi limit");
        assert!(failure.error.as_deref().is_some_and(|e| e.contains("13")), "{failure}");
        let path = failure.flight_recorder.clone().expect("failure carries the dump path");
        let dump = std::fs::read_to_string(&path).expect("dump file exists");
        assert!(dump.contains("before_failure"), "dump holds the pre-failure events: {dump}");
        assert!(failure.to_string().contains("flight recorder"), "{failure}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failure_display_carries_the_replay_seed() {
        let s = Scenario::from_seed(9);
        let f = SimFailure {
            scenario: s,
            violations: vec![Violation::PoolImbalance { outstanding: 1 }],
            error: None,
            flight_recorder: None,
        };
        let text = f.to_string();
        assert!(text.contains("Scenario::from_seed(9)"));
        assert!(text.contains("outstanding"));
    }
}
