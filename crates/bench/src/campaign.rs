//! The campaign engine: batched, cached, globally scheduled simulations.
//!
//! Figures submit every `(preset × workload)` simulation they need as a
//! batch of [`SimRequest`]s. The [`Campaign`] deduplicates the batch by
//! content fingerprint, serves repeats from the [`SimCache`] (fig08,
//! fig09, fig11, fig12 and the calibration table all share their LRU
//! baselines), and executes only the residue — one flat job list across
//! `ITPX_THREADS` host threads with no per-column barrier.
//!
//! The cold residue of a batch is a [`WorkQueue`], resolved by one of
//! two [`Executor`]s: the classic in-process thread pool, or the
//! multi-process shard mode (`ITPX_SHARDS`/`ITPX_SHARD_INDEX`) where N
//! cooperating processes split the deduplicated queue by deterministic
//! key ranges, publish results through the shared segmented store, and
//! poll the store for each other's chunks — every shard ends the batch
//! holding the complete, byte-identical result set.

use crate::harness::{RunScale, Sweep};
use crate::simcache::SimCache;
use itpx_core::presets::BuildConfig;
use itpx_core::Preset;
use itpx_cpu::{Simulation, SimulationOutput, SystemConfig};
use itpx_trace::{SmtPairSpec, TraceGenerator, WorkloadSpec};
use itpx_types::fingerprint::{Fingerprint, Fnv1a};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;

/// Version tag mixed into every request key; bump when the simulator
/// changes behavior without changing any configuration field.
const KEY_SCHEMA: &str = "itpx-simrequest-v1";

/// What runs on the simulated core.
#[derive(Debug, Clone)]
pub enum SimUnit {
    /// One workload on one hardware thread.
    Single(Box<WorkloadSpec>),
    /// Two workloads co-located under SMT.
    ///
    /// Both variants box their spec: a workload spec is a couple
    /// hundred bytes, and requests are built once per batch but cloned
    /// into sweep job lists.
    Pair(Box<SmtPairSpec>),
}

impl Fingerprint for SimUnit {
    fn fingerprint(&self, h: &mut Fnv1a) {
        match self {
            SimUnit::Single(w) => {
                h.write_u8(0);
                w.fingerprint(h);
            }
            SimUnit::Pair(p) => {
                h.write_u8(1);
                p.fingerprint(h);
            }
        }
    }
}

/// One simulation the campaign may run or serve from cache.
#[derive(Debug, Clone)]
pub struct SimRequest {
    /// Machine configuration.
    pub config: SystemConfig,
    /// Policy preset.
    pub preset: Preset,
    /// Policy build knobs (LLC choice, iTP/xPTP parameters).
    pub build: BuildConfig,
    /// Workload(s).
    pub unit: SimUnit,
}

impl SimRequest {
    /// A single-thread request with default build knobs.
    pub fn single(config: &SystemConfig, preset: Preset, w: &WorkloadSpec) -> Self {
        Self {
            config: *config,
            preset,
            build: BuildConfig::default(),
            unit: SimUnit::Single(Box::new(w.clone())),
        }
    }

    /// An SMT request with default build knobs.
    pub fn smt(config: &SystemConfig, preset: Preset, pair: &SmtPairSpec) -> Self {
        Self {
            config: *config,
            preset,
            build: BuildConfig::default(),
            unit: SimUnit::Pair(Box::new(pair.clone())),
        }
    }

    /// Overrides the build knobs.
    #[must_use]
    pub fn with_build(mut self, build: BuildConfig) -> Self {
        self.build = build;
        self
    }

    /// The content-addressed cache key: a stable hash over every input
    /// that determines this request's [`SimulationOutput`] — machine
    /// configuration, preset identity, build knobs, and workload
    /// parameters including run lengths. Never includes wall-clock time,
    /// host thread counts, or anything else that cannot change the
    /// simulated result.
    pub fn key(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(KEY_SCHEMA);
        self.config.fingerprint(&mut h);
        self.preset.fingerprint(&mut h);
        self.build.fingerprint(&mut h);
        self.unit.fingerprint(&mut h);
        h.finish()
    }

    /// The workload whose generator layout can be built ahead of this
    /// request's run: a single-thread, single-tenant one.
    fn prefetchable(&self) -> Option<&WorkloadSpec> {
        match &self.unit {
            SimUnit::Single(w) if w.contexts.is_flat() => Some(w),
            _ => None,
        }
    }

    /// Runs the simulation (no cache involvement).
    pub fn execute(&self) -> SimulationOutput {
        match &self.unit {
            SimUnit::Single(w) => Simulation::single_thread(&self.config, self.preset, w)
                .build_config(self.build)
                .run(),
            SimUnit::Pair(p) => Simulation::smt(&self.config, self.preset, p)
                .build_config(self.build)
                .run(),
        }
    }
}

/// One deduplicated batch: every distinct request, in first-appearance
/// order, keyed by content fingerprint. The queue holds hits and misses
/// alike — shard partitioning runs over the full set, so the chunk map
/// depends only on the batch, never on store state.
#[derive(Debug)]
pub struct WorkQueue {
    jobs: Vec<(u64, SimRequest)>,
}

impl WorkQueue {
    /// Wraps a deduplicated `(key, request)` list.
    pub fn new(jobs: Vec<(u64, SimRequest)>) -> Self {
        Self { jobs }
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when the cache served everything.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The queued keys, in queue order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.jobs.iter().map(|(k, _)| *k)
    }

    /// The job indices `misses` in execution order: workload-major, by
    /// the request's workload fingerprint, ties in queue (request)
    /// order. Every preset of a workload then runs back to back, so its
    /// generator layout is built once (see `itpx_trace::TraceGenerator`)
    /// even when a figure submits its batch preset-major.
    fn workload_major(&self, mut misses: Vec<usize>) -> Vec<usize> {
        // sort_by_cached_key is stable
        misses.sort_by_cached_key(|&i| self.jobs[i].1.unit.fingerprint_u64());
        misses
    }

    /// Deterministic key-range partition: job indices sorted by key are
    /// split into `shards` contiguous, near-equal chunks and chunk
    /// `index` is returned. Every cooperating shard computes the same
    /// queue from the same figure code, so the chunks are disjoint and
    /// jointly exhaustive without any coordination.
    pub fn shard(&self, shards: u64, index: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        order.sort_by_key(|&i| self.jobs[i].0);
        let (n, shards, index) = (order.len(), shards as usize, index as usize);
        order[(index * n) / shards..((index + 1) * n) / shards].to_vec()
    }
}

/// How a [`WorkQueue`] gets executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// Every job runs on this process's thread pool — the classic mode.
    InProcess,
    /// This process runs shard `index` of `shards` (its key-range chunk
    /// of the queue) and resolves the other chunks by polling the shared
    /// store, falling back to local execution if a peer shard never
    /// delivers. Requires all shards to share one on-disk cache
    /// directory.
    Sharded {
        /// Total cooperating processes.
        shards: u64,
        /// This process's chunk (`< shards`).
        index: u64,
    },
}

impl Executor {
    /// The executor selected by `ITPX_SHARDS`/`ITPX_SHARD_INDEX`
    /// (validated by [`crate::env`]; `ITPX_SHARDS=1` or unset is the
    /// classic in-process mode).
    pub fn from_env() -> Self {
        match crate::env::shard_layout_from_env() {
            (0 | 1, _) => Executor::InProcess,
            (shards, index) => Executor::Sharded { shards, index },
        }
    }
}

/// Poll rounds before a shard gives up on its peers and runs the
/// leftover jobs itself (self-healing a crashed shard). With the
/// backoff in [`poll_backoff_ms`] this is several minutes of patience.
const POLL_ROUNDS: u32 = 1_200;

/// Backoff for poll round `round`: ramps 25 ms → 250 ms.
fn poll_backoff_ms(round: u32) -> u64 {
    (25 * (u64::from(round) + 1)).min(250)
}

/// Layout prefetch helpers this process started, and those still running.
static HELPERS_STARTED: AtomicU64 = AtomicU64::new(0);
static HELPERS_RUNNING: AtomicU64 = AtomicU64::new(0);

/// Whether the host has a core a pool of `workers` threads leaves idle.
/// It follows the CPUs the process may run on, so a pinned run has none.
fn core_left_idle(workers: usize) -> bool {
    std::thread::available_parallelism().is_ok_and(|cores| cores.get() > workers)
}

/// Distinct prefetchable workloads in run order, and each job's queue
/// index with its workload's ordinal among them.
type LayoutPlan<'q> = (Vec<&'q WorkloadSpec>, Vec<(usize, Option<usize>)>);

/// A cold batch's layout prefetch plan for running the queue entries at
/// `indices` in order. Only single-thread, single-tenant workloads are
/// prefetched. Equal workloads run back to back (workload-major), so
/// comparing each with the previous one finds the distinct ones.
fn layout_plan(queue: &WorkQueue, indices: Vec<usize>) -> LayoutPlan<'_> {
    let mut specs: Vec<&WorkloadSpec> = Vec::new();
    let mut last = None;
    let jobs = indices
        .into_iter()
        .map(|i| {
            let req = &queue.jobs[i].1;
            let ordinal = req.prefetchable().map(|w| {
                let unit = req.unit.fingerprint_u64();
                if last != Some(unit) {
                    last = Some(unit);
                    specs.push(w);
                }
                specs.len() - 1
            });
            (i, ordinal)
        })
        .collect();
    (specs, jobs)
}

/// The prefetch helper's loop: for each ordinal the jobs ask for, build
/// that workload's layout into the memo's prefetch slot. A job asks for
/// the next workload only after taking its own layout, and requests the
/// jobs have already passed are skipped. The handle of the newest
/// prefetch is dropped before the next and on exit, which withdraws it
/// if no job took it.
fn prefetch_layouts(specs: &[&WorkloadSpec], requests: mpsc::Receiver<usize>) {
    HELPERS_STARTED.fetch_add(1, Ordering::SeqCst);
    HELPERS_RUNNING.fetch_add(1, Ordering::SeqCst);
    let mut held = None;
    let mut next = 0;
    while let Ok(first) = requests.recv() {
        let k = requests.try_iter().fold(first, usize::max);
        if k < next {
            continue;
        }
        drop(held.take());
        next = k + 1;
        // A build that panics is left to the job that needs it, which
        // then fails with its own message.
        held = std::panic::catch_unwind(|| TraceGenerator::prefetch(specs[k]))
            .ok()
            .flatten();
    }
    drop(held);
    HELPERS_RUNNING.fetch_sub(1, Ordering::SeqCst);
}

/// Shared scheduler + cache for a whole campaign of figures.
#[derive(Debug)]
pub struct Campaign {
    scale: RunScale,
    sweep: Sweep,
    cache: SimCache,
    executor: Executor,
    poll_rounds: u32,
    executed: AtomicU64,
}

impl Campaign {
    /// A campaign at `scale` backed by `cache`, executing in-process.
    pub fn new(scale: RunScale, cache: SimCache) -> Self {
        Self {
            sweep: Sweep::new(scale.host_threads),
            scale,
            cache,
            executor: Executor::InProcess,
            poll_rounds: POLL_ROUNDS,
            executed: AtomicU64::new(0),
        }
    }

    /// Replaces the queue executor (shard mode for multi-process runs).
    #[must_use]
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Shortens the peer-poll patience (tests exercise the self-heal
    /// path without waiting out the production default).
    #[must_use]
    pub fn with_poll_rounds(mut self, rounds: u32) -> Self {
        self.poll_rounds = rounds;
        self
    }

    /// The standard configuration: scale, cache, and executor from the
    /// environment.
    pub fn from_env() -> Self {
        Self::new(RunScale::from_env(), SimCache::from_env()).with_executor(Executor::from_env())
    }

    /// The run scale figures should size their suites with.
    pub fn scale(&self) -> &RunScale {
        &self.scale
    }

    /// The underlying result cache (hit/miss counters live here).
    pub fn cache(&self) -> &SimCache {
        &self.cache
    }

    /// How this campaign executes cold work.
    pub fn executor(&self) -> Executor {
        self.executor
    }

    /// Simulations this process actually executed (as opposed to served
    /// from the cache or received from peer shards).
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Layout prefetch helper threads started so far in this process.
    pub fn prefetch_helpers_started() -> u64 {
        HELPERS_STARTED.load(Ordering::SeqCst)
    }

    /// Layout prefetch helper threads of this process not yet finished.
    pub fn prefetch_helpers_running() -> u64 {
        HELPERS_RUNNING.load(Ordering::SeqCst)
    }

    /// Resolves a batch of requests, in request order.
    ///
    /// The batch is deduplicated by [`SimRequest::key`] into one
    /// [`WorkQueue`]; each distinct key is then looked up in the cache
    /// exactly once (counting one hit or miss), and the misses are
    /// handed to the configured [`Executor`] workload-major, so the
    /// presets of one workload run back to back. Repeated keys — within
    /// the batch or across batches — never simulate twice in one
    /// process, and in shard mode at most once across the whole fleet
    /// (barring self-heal takeovers).
    pub fn run_batch(&self, requests: Vec<SimRequest>) -> Vec<SimulationOutput> {
        let keys: Vec<u64> = requests.iter().map(|r| r.key()).collect();
        let mut queued: BTreeSet<u64> = BTreeSet::new();
        let mut jobs: Vec<(u64, SimRequest)> = Vec::new();
        for (req, &key) in requests.into_iter().zip(&keys) {
            if queued.insert(key) {
                jobs.push((key, req));
            }
        }
        // The queue holds every unique key, hit or miss: shard
        // partitioning must be a pure function of the request batch, not
        // of how much of the store peer shards have already filled.
        let queue = WorkQueue::new(jobs);
        let mut resolved: BTreeMap<u64, SimulationOutput> = BTreeMap::new();
        let mut misses: Vec<usize> = Vec::new();
        for (i, &(key, _)) in queue.jobs.iter().enumerate() {
            match self.cache.get(key) {
                Some(out) => {
                    resolved.insert(key, out);
                }
                None => misses.push(i),
            }
        }
        let misses = queue.workload_major(misses);
        for (key, out) in self.execute_queue(&queue, misses) {
            resolved.insert(key, out);
        }
        keys.iter()
            .map(|k| {
                resolved
                    .get(k)
                    // every key was either resolved from cache or executed
                    .expect("request resolved")
                    .clone()
            })
            .collect()
    }

    /// Executes the queue entries at `misses` under the configured
    /// executor, returning one output per missing key (order
    /// unspecified; callers key off the returned pairs). Results are
    /// published to the cache from inside the worker threads, so peer
    /// shards see them as early as possible.
    ///
    /// In shard mode the partition is computed over the *full* queue —
    /// identical on every shard by construction — and this shard then
    /// executes only the misses inside its own chunk. Misses outside it
    /// belong to a peer: either that peer also sees them as misses and
    /// executes them, or it saw hits because the results were already
    /// on disk — in which case polling returns immediately. Partitioning
    /// only the misses instead would let desynchronized shards (one
    /// figure ahead of its peer, dedup racing fresh inserts) derive
    /// conflicting chunk maps and strand keys no shard claims until the
    /// self-heal patience runs out.
    fn execute_queue(&self, queue: &WorkQueue, misses: Vec<usize>) -> Vec<(u64, SimulationOutput)> {
        if misses.is_empty() {
            return Vec::new();
        }
        let (mine, waited): (Vec<usize>, Vec<usize>) = match self.executor {
            Executor::InProcess | Executor::Sharded { shards: 1, .. } => (misses, Vec::new()),
            Executor::Sharded { shards, index } => {
                let chunk: BTreeSet<usize> = queue.shard(shards, index).into_iter().collect();
                misses.into_iter().partition(|i| chunk.contains(i))
            }
        };
        let mut outputs = self.execute_jobs(queue, mine);
        outputs.extend(self.await_peers(queue, waited));
        outputs
    }

    /// Runs the queue entries at `indices` on the local sweep, inserting
    /// each result into the cache as it completes.
    ///
    /// When the pool leaves a host core idle and the jobs span more than
    /// one prefetchable workload, one helper thread on that core builds
    /// the generator layout of the next workload while the current one
    /// simulates, so the next job finds it built (or in flight). The
    /// helper builds what the job would have built, into the same memo,
    /// so outputs are unchanged; it has exited when this returns.
    fn execute_jobs(&self, queue: &WorkQueue, indices: Vec<usize>) -> Vec<(u64, SimulationOutput)> {
        self.executed
            .fetch_add(indices.len() as u64, Ordering::Relaxed);
        let workers = self.sweep.workers(indices.len());
        let (specs, jobs) = layout_plan(queue, indices);
        let specs = &specs;
        std::thread::scope(|scope| {
            let ask = (specs.len() > 1 && core_left_idle(workers)).then(|| {
                let (ask, requests) = mpsc::channel();
                // Without the helper the jobs' requests go nowhere,
                // which is harmless.
                let _ = std::thread::Builder::new()
                    .name("layout-prefetch".into())
                    .spawn_scoped(scope, move || prefetch_layouts(specs, requests));
                ask
            });
            // The closure owns `ask`: when the sweep ends, even by a
            // panic, the channel closes and the helper exits.
            self.sweep.run_generic(jobs, move |&(i, ordinal)| {
                if let (Some(ask), Some(o)) = (&ask, ordinal) {
                    // Take this job's layout before asking for the next
                    // one: the helper withdraws its previous prefetch
                    // before the next if no job has taken it.
                    drop(TraceGenerator::new(specs[o]));
                    if o + 1 < specs.len() {
                        let _ = ask.send(o + 1);
                    }
                }
                let (key, req) = &queue.jobs[i];
                let out = req.execute();
                self.cache.insert(*key, &out);
                (*key, out)
            })
        })
    }

    /// Polls the shared store for peer shards' results, self-healing by
    /// executing anything a peer never delivers.
    fn await_peers(&self, queue: &WorkQueue, waited: Vec<usize>) -> Vec<(u64, SimulationOutput)> {
        let mut outputs = Vec::with_capacity(waited.len());
        let mut missing = waited;
        for round in 0..self.poll_rounds {
            missing.retain(|&i| {
                let key = queue.jobs[i].0;
                match self.cache.peek(key) {
                    Some(out) => {
                        outputs.push((key, out));
                        false
                    }
                    None => true,
                }
            });
            if missing.is_empty() {
                return outputs;
            }
            crate::harness::sleep_ms(poll_backoff_ms(round));
        }
        // A peer shard crashed or was never started: take its jobs over
        // rather than hanging the campaign.
        eprintln!(
            "warning: peer shards never delivered {} job(s); executing them locally",
            missing.len()
        );
        outputs.extend(self.execute_jobs(queue, missing));
        outputs
    }

    /// Convenience: resolves one request.
    pub fn run_one(&self, request: SimRequest) -> SimulationOutput {
        self.run_batch(vec![request])
            .pop()
            // run_batch returns exactly one output per request
            .expect("one output")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itpx_core::presets::LlcChoice;
    use itpx_trace::{smt_suite, SmtCategory};

    fn smoke_workload(seed: u64) -> WorkloadSpec {
        WorkloadSpec::server_like(seed)
            .instructions(5_000)
            .warmup(1_000)
    }

    fn base_request() -> SimRequest {
        SimRequest::single(&SystemConfig::asplos25(), Preset::Lru, &smoke_workload(1))
    }

    #[test]
    fn same_request_same_key() {
        assert_eq!(base_request().key(), base_request().key());
    }

    /// Keys minted before [`Preset::KeepInstr`] existed keep serving warm
    /// caches: the value is the key this request had then.
    #[test]
    fn existing_keys_do_not_move() {
        assert_eq!(base_request().key(), 0x45a4_db99_b633_bd29);
    }

    #[test]
    fn every_field_changes_the_key() {
        let base = base_request().key();
        let mut seen = vec![base];

        // Machine configuration fields.
        let mut r = base_request();
        r.config.seed ^= 1;
        seen.push(r.key());
        let mut r = base_request();
        r.config = r.config.with_itlb_entries(128);
        seen.push(r.key());
        let mut r = base_request();
        r.config = r.config.with_split_stlb(true);
        seen.push(r.key());
        let mut r = base_request();
        r.config.hierarchy.l2c_mut().mshr_entries += 1;
        seen.push(r.key());
        let mut r = base_request();
        r.config.huge_pages = itpx_vm::page_table::HugePagePolicy::uniform(0.5, 3);
        seen.push(r.key());

        // Chain depth: no-LLC and 4-level variants key distinctly.
        let mut r = base_request();
        r.config.hierarchy = itpx_mem::HierarchyConfig::asplos25_no_llc();
        seen.push(r.key());
        let mut r = base_request();
        r.config.hierarchy = itpx_mem::HierarchyConfig::asplos25_deep();
        seen.push(r.key());

        // Preset and build knobs.
        for preset in [Preset::ItpXptp, Preset::KeepInstr(2), Preset::KeepInstr(8)] {
            let mut r = base_request();
            r.preset = preset;
            seen.push(r.key());
        }
        let r = base_request().with_build(BuildConfig {
            seed: 9,
            ..BuildConfig::default()
        });
        seen.push(r.key());
        let r = base_request().with_build(BuildConfig {
            llc: LlcChoice::Ship,
            ..BuildConfig::default()
        });
        seen.push(r.key());
        let r = base_request().with_build(BuildConfig {
            t1: 999,
            ..BuildConfig::default()
        });
        seen.push(r.key());

        // Workload parameters, including run lengths.
        let r = SimRequest::single(&SystemConfig::asplos25(), Preset::Lru, &smoke_workload(2));
        seen.push(r.key());
        let r = SimRequest::single(
            &SystemConfig::asplos25(),
            Preset::Lru,
            &smoke_workload(1).instructions(6_000),
        );
        seen.push(r.key());
        let r = SimRequest::single(
            &SystemConfig::asplos25(),
            Preset::Lru,
            &smoke_workload(1).warmup(2_000),
        );
        seen.push(r.key());
        // A tiered schedule keys distinctly (and each knob matters).
        let tiered = |w, ff, n| {
            SimRequest::single(
                &SystemConfig::asplos25(),
                Preset::Lru,
                &smoke_workload(1).tiers(itpx_trace::TierSchedule::tiered(w, ff, n)),
            )
        };
        seen.push(tiered(1_000, 10_000, 4).key());
        seen.push(tiered(1_000, 10_000, 5).key());
        seen.push(tiered(1_000, 20_000, 4).key());
        seen.push(tiered(2_000, 10_000, 4).key());
        // A context schedule keys distinctly (and each knob matters).
        let ctx = |c: itpx_trace::ContextSchedule| {
            SimRequest::single(
                &SystemConfig::asplos25(),
                Preset::Lru,
                &smoke_workload(1).contexts(c),
            )
            .key()
        };
        let rr =
            itpx_trace::ContextSchedule::round_robin(2, 3_000, itpx_trace::SwitchPolicy::FlushAsid);
        seen.push(ctx(rr));
        seen.push(ctx(itpx_trace::ContextSchedule::round_robin(
            4,
            3_000,
            itpx_trace::SwitchPolicy::FlushAsid,
        )));
        seen.push(ctx(itpx_trace::ContextSchedule::round_robin(
            2,
            4_000,
            itpx_trace::SwitchPolicy::FlushAsid,
        )));
        seen.push(ctx(itpx_trace::ContextSchedule::round_robin(
            2,
            3_000,
            itpx_trace::SwitchPolicy::Preserve,
        )));
        seen.push(ctx(rr.shootdowns(500)));
        seen.push(ctx(rr.churn(2_000)));
        seen.push(ctx(rr.globals(0.5, 7)));
        seen.push(ctx(rr.globals(0.5, 8)));

        // Single vs pair on overlapping content.
        let pair = SmtPairSpec {
            a: smoke_workload(1),
            b: smoke_workload(1),
            category: SmtCategory::Intense,
        };
        let r = SimRequest::smt(&SystemConfig::asplos25(), Preset::Lru, &pair);
        seen.push(r.key());

        let unique: BTreeSet<u64> = seen.iter().copied().collect();
        assert_eq!(
            unique.len(),
            seen.len(),
            "every varied field must produce a distinct key: {seen:x?}"
        );
    }

    /// The flat schedule hashes as *nothing*: every simcache key minted
    /// before tiering existed must stay byte-identical, so warm caches
    /// keep serving.
    #[test]
    fn flat_schedule_keeps_pre_tiering_keys() {
        let explicit_flat = SimRequest::single(
            &SystemConfig::asplos25(),
            Preset::Lru,
            &smoke_workload(1).tiers(itpx_trace::TierSchedule::flat()),
        );
        assert_eq!(explicit_flat.key(), base_request().key());
    }

    /// Tiered results are keyed apart from those stored while a
    /// fast-forward warmed a policy-free copy of the machine and handed
    /// it over: the schedule's fingerprint is salted, so those entries
    /// are never served again.
    #[test]
    fn tiered_keys_skip_the_handoff_era() {
        let key = SimRequest::single(
            &SystemConfig::asplos25(),
            Preset::Lru,
            &smoke_workload(1).tiers(itpx_trace::TierSchedule::tiered(1_000, 10_000, 4)),
        )
        .key();
        assert_ne!(key, 0x89eb_c815_ff68_5bb9, "the handoff-era key");
        assert_eq!(key, 0xb284_eafb_1b33_414e);
    }

    /// Same contract for the context schedule: a flat (single-ASID,
    /// no-switching) schedule hashes as nothing, so keys minted before
    /// multi-tenancy existed keep serving warm caches.
    #[test]
    fn flat_context_schedule_keeps_pre_consolidation_keys() {
        let explicit_flat = SimRequest::single(
            &SystemConfig::asplos25(),
            Preset::Lru,
            &smoke_workload(1).contexts(itpx_trace::ContextSchedule::flat()),
        );
        assert_eq!(explicit_flat.key(), base_request().key());
    }

    #[test]
    fn smt_category_is_part_of_the_key() {
        let mk = |cat| {
            let pair = SmtPairSpec {
                a: smoke_workload(1),
                b: smoke_workload(2),
                category: cat,
            };
            SimRequest::smt(&SystemConfig::asplos25(), Preset::Lru, &pair).key()
        };
        assert_ne!(mk(SmtCategory::Intense), mk(SmtCategory::Relaxed));
    }

    #[test]
    fn shard_partition_is_deterministic_disjoint_and_exhaustive() {
        let jobs: Vec<(u64, SimRequest)> = (0..11)
            .map(|seed| {
                let req = SimRequest::single(
                    &SystemConfig::asplos25(),
                    Preset::Lru,
                    &smoke_workload(seed),
                );
                (req.key(), req)
            })
            .collect();
        let queue = WorkQueue::new(jobs);
        for shards in 1..=4u64 {
            let mut seen: Vec<usize> = Vec::new();
            for index in 0..shards {
                let chunk = queue.shard(shards, index);
                // Deterministic: the same call yields the same chunk.
                assert_eq!(chunk, queue.shard(shards, index));
                // Near-equal: chunk sizes differ by at most one.
                let n = queue.len() as u64;
                let ideal = n / shards;
                assert!((ideal..=ideal + 1).contains(&(chunk.len() as u64)));
                seen.extend(chunk);
            }
            // Disjoint and jointly exhaustive.
            let unique: BTreeSet<usize> = seen.iter().copied().collect();
            assert_eq!(
                unique.len(),
                seen.len(),
                "chunks overlap at {shards} shards"
            );
            assert_eq!(
                unique.len(),
                queue.len(),
                "chunks miss jobs at {shards} shards"
            );
        }
    }

    #[test]
    fn shard_chunks_are_contiguous_key_ranges() {
        let jobs: Vec<(u64, SimRequest)> = (0..7)
            .map(|seed| {
                let req = SimRequest::single(
                    &SystemConfig::asplos25(),
                    Preset::Lru,
                    &smoke_workload(seed),
                );
                (req.key(), req)
            })
            .collect();
        let queue = WorkQueue::new(jobs);
        let max_key = |idx: &[usize]| idx.iter().map(|&i| queue.jobs[i].0).max();
        let min_key = |idx: &[usize]| idx.iter().map(|&i| queue.jobs[i].0).min();
        let (a, b) = (queue.shard(2, 0), queue.shard(2, 1));
        // Every key in shard 0's range sits below every key in shard 1's.
        assert!(max_key(&a) < min_key(&b));
    }

    #[test]
    fn single_shard_layouts_collapse_to_in_process() {
        // Executor::from_env maps a 1-shard layout to InProcess; the
        // executor itself also treats Sharded{shards: 1} as run-it-all.
        let campaign = Campaign::new(RunScale::smoke(), SimCache::new(None)).with_executor(
            Executor::Sharded {
                shards: 1,
                index: 0,
            },
        );
        let out = campaign.run_one(base_request());
        assert_eq!(out, base_request().execute());
        assert_eq!(campaign.executed(), 1);
    }

    #[test]
    fn batch_deduplicates_and_caches() {
        let campaign = Campaign::new(RunScale::smoke(), SimCache::new(None));
        let req = base_request();
        let outs = campaign.run_batch(vec![req.clone(), req.clone(), req.clone()]);
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
        // One unique key: one miss (executed once), no hits yet.
        assert_eq!((campaign.cache().hits(), campaign.cache().misses()), (0, 1));
        // A second batch is served entirely from cache.
        let again = campaign.run_one(req);
        assert_eq!(again, outs[0]);
        assert_eq!((campaign.cache().hits(), campaign.cache().misses()), (1, 1));
    }

    #[test]
    fn preset_major_batches_run_workload_major_and_answer_in_request_order() {
        let presets = [Preset::Lru, Preset::Itp, Preset::ItpXptp];
        let workloads: Vec<WorkloadSpec> = (1..=4)
            .map(|s| smoke_workload(s).instructions(2_000).warmup(500))
            .collect();
        // How figures submit: preset-major.
        let requests: Vec<SimRequest> = presets
            .iter()
            .flat_map(|&p| {
                workloads
                    .iter()
                    .map(move |w| SimRequest::single(&SystemConfig::asplos25(), p, w))
            })
            .collect();
        let queue = WorkQueue::new(requests.iter().map(|r| (r.key(), r.clone())).collect());
        let order = queue.workload_major((0..requests.len()).collect());
        for group in order.chunks(presets.len()) {
            let w = group[0] % workloads.len();
            // One workload per run of presets, its presets in request order.
            let want: Vec<usize> = (0..presets.len())
                .map(|p| p * workloads.len() + w)
                .collect();
            assert_eq!(group, want, "execution order {order:?}");
        }
        let campaign = Campaign::new(RunScale::smoke(), SimCache::new(None));
        let outs = campaign.run_batch(requests.clone());
        let want: Vec<SimulationOutput> = requests.iter().map(SimRequest::execute).collect();
        assert_eq!(outs, want);
    }

    /// The keyed keep-instructions preset simulates exactly what the
    /// hand-built bundle of the Figure 3/4 motivation policy does.
    #[test]
    fn keep_instr_request_matches_its_hand_built_bundle() {
        let config = SystemConfig::asplos25();
        let w = smoke_workload(3);
        let build = BuildConfig {
            seed: 9,
            ..BuildConfig::default()
        };
        let keyed = SimRequest::single(&config, Preset::KeepInstr(8), &w)
            .with_build(build)
            .execute();
        let d = config.dims();
        let bundle = itpx_core::presets::PolicyBundle {
            stlb: itpx_policy::ProbKeepInstrLru::new(d.stlb.0, d.stlb.1, 0.8, 9).into(),
            l2c: itpx_policy::Lru::new(d.l2c.0, d.l2c.1).into(),
            llc: itpx_policy::Lru::new(d.llc.0, d.llc.1).into(),
            monitor: None,
        };
        let mut custom =
            Simulation::custom(&config, bundle, "custom", std::slice::from_ref(&w)).run();
        custom.preset = keyed.preset.clone();
        assert_eq!(keyed, custom);
    }

    #[test]
    fn cached_and_fresh_results_are_identical() {
        let campaign = Campaign::new(RunScale::smoke(), SimCache::new(None));
        let mut pair = smt_suite(1).remove(0);
        pair.a = pair.a.instructions(5_000).warmup(1_000);
        pair.b = pair.b.instructions(5_000).warmup(1_000);
        let req = SimRequest::smt(&SystemConfig::asplos25(), Preset::ItpXptp, &pair);
        let fresh = req.execute();
        let via_campaign_cold = campaign.run_one(req.clone());
        let via_campaign_warm = campaign.run_one(req);
        assert_eq!(fresh, via_campaign_cold);
        assert_eq!(fresh, via_campaign_warm);
    }
}
