//! Per-layer attribution. The traced loop records spans around the
//! public calls of each job (see [`crate::job::Spans`]); this module
//! re-runs the work of a few of those jobs layer by layer, through each
//! crate's public API, and splits the job's wall time over the layers.
//!
//! The isolation passes double as a determinism check: the step,
//! instruction, store and checkpoint counts they measure must equal the
//! ones the job's own runs recorded in the corpus.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use adhash::{DeltaBatch, HashSum, IncHasher, Mix64Hasher};
use corpus::{CampaignBaseline, Corpus};
use instantcheck::{CampaignSpec, CheckReport, Checker, RunCache, RunHashes, Scheme};
use sched::CampaignResult;
use tsim::{Addr, AllocLog, Monitor, NullMonitor, RunConfig, ThreadId, ValKind};

use crate::job::{CorpusDelta, JobRun, Spans};
use crate::workload::{Campaign, Job};
use crate::Metric;

/// Totals of the isolation passes over the sampled jobs.
#[derive(Debug, Default)]
pub struct Isolation {
    pub campaigns: u64,
    pub runs: u64,
    pub build_ns: u64,
    pub sim_ns: u64,
    pub steps: u64,
    pub instr: u64,
    pub updates: u64,
    pub update_ns: u64,
    pub check_ns: u64,
    pub native_ns: u64,
    pub checkpoints: u64,
    pub lookup_ns: u64,
    pub store_ns: u64,
    pub capture_ns: u64,
    pub encode_ns: u64,
}

/// Records the store stream of a run, for replay through `adhash`.
#[derive(Default)]
struct StoreRecorder {
    stores: Vec<(u64, u64, u64)>,
}

impl Monitor for StoreRecorder {
    fn on_store(&mut self, _tid: ThreadId, addr: Addr, old: u64, new: u64, _kind: ValKind) {
        self.stores.push((addr.0, old, new));
    }
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The run configuration the checker uses for `slot` of `spec`: slot 0
/// logs its allocator addresses, later slots replay that log.
fn run_config(spec: &CampaignSpec, slot: usize, alloc: Option<&Arc<AllocLog>>) -> RunConfig {
    let mut rc = RunConfig::random(spec.base_seed + slot as u64)
        .with_switch(spec.switch)
        .with_lib_seed(spec.lib_seed)
        .with_max_steps(spec.max_steps);
    if spec.scheme.is_checking() {
        rc = rc.with_zero_fill_charged();
    }
    if let Some(log) = alloc {
        rc = rc.with_alloc_replay(Arc::clone(log));
    }
    rc
}

/// Timed repetitions of the simulation and core passes; medians are
/// kept, so the difference of two of them is not mostly noise.
const REPS: usize = 3;

fn median_ns(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// Re-runs sampled jobs layer by layer, each right after it ran, so the
/// comparison with the job's own spans is not skewed by the machine
/// getting faster or slower over the run.
pub struct Isolator {
    scratch: Arc<Corpus>,
    warm: bool,
    /// Jobs still to sample.
    pub remaining: usize,
    pub iso: Isolation,
    pub failures: Vec<String>,
}

impl Isolator {
    /// An isolator that samples `jobs` jobs and appends into a fresh
    /// corpus at `scratch`.
    pub fn new(scratch: &Path, warm: bool, jobs: usize) -> Result<Isolator, String> {
        Ok(Isolator {
            scratch: crate::open_corpus(scratch)?.0,
            warm,
            remaining: jobs,
            iso: Isolation::default(),
            failures: Vec::new(),
        })
    }

    /// Re-runs `job` in passes (corpus, report, then simulation and core
    /// together, then adhash), so each pass runs with the caches its layer
    /// warms, as inside a job.
    ///
    /// Warm jobs are fetched through a freshly opened instance of
    /// `corpus_dir`, so the lookups time the job's read path (memo miss,
    /// one segment read); cold jobs are fetched from `corpus` and the
    /// timed lookup is a miss on the scratch corpus, as in a cold job.
    /// Every run is then stored into the scratch corpus to time an
    /// append. Mismatches are recorded as failures, not errors.
    pub fn isolate(
        &mut self,
        job: &Job,
        run: &JobRun,
        corpus: &Arc<Corpus>,
        corpus_dir: &Path,
    ) -> Result<(), String> {
        self.remaining -= 1;
        // A cold job looks up and appends each of its runs once; a warm
        // one reads each once and appends none.
        let (_, delta) = run.spans.ok_or("an isolated job must be traced")?;
        let runs = job.runs() as u64;
        let (hits, stores) = if self.warm { (runs, 0) } else { (0, runs) };
        if (delta.hits, delta.misses + delta.hits, delta.stores) != (hits, runs, stores) {
            self.failures.push(format!(
                "a job of {runs} runs hit {} times, missed {} and appended {}",
                delta.hits, delta.misses, delta.stores
            ));
        }
        let results = &run.results;
        let source = if self.warm {
            crate::open_corpus(corpus_dir)?.0
        } else {
            Arc::clone(corpus)
        };
        let warm = self.warm;
        let scratch = &*self.scratch;
        let iso = &mut self.iso;
        let failures = &mut self.failures;
        let campaigns: Vec<(&Campaign, &CampaignResult)> =
            job.campaigns.iter().zip(results).collect();
        iso.campaigns += campaigns.len() as u64;

        // corpus: fetch every run of every campaign, timing the job's lookup
        // and an append.
        let mut runs = Vec::with_capacity(campaigns.len());
        for (c, _) in &campaigns {
            let spec = &c.spec;
            let mut cached = Vec::with_capacity(spec.runs);
            for slot in 0..spec.runs {
                let seed = spec.base_seed + slot as u64;
                let key = spec.run_key(slot, seed, (slot > 0).then_some(spec.base_seed));
                let t = Instant::now();
                let hit = source.lookup(&key);
                let lookup = ns(t);
                let Some(run) = hit else {
                    return Err(format!(
                        "{}: run {slot} missing from the corpus",
                        spec.workload
                    ));
                };
                if warm {
                    iso.lookup_ns += lookup;
                } else {
                    let t = Instant::now();
                    let miss = scratch.lookup(&key);
                    iso.lookup_ns += ns(t);
                    if miss.is_some() {
                        failures.push(format!("{}: a fresh key hit", spec.workload));
                    }
                }
                let t = Instant::now();
                scratch.store(&key, &run);
                iso.store_ns += ns(t);
                cached.push(run);
            }
            runs.push(cached);
        }

        // report: the artifact re-encoded from the corpus must be the one
        // the job wrote.
        for ((c, result), cached) in campaigns.iter().zip(&runs) {
            let spec = &c.spec;
            let hashes: Vec<RunHashes> = cached.iter().map(|r| r.hashes.clone()).collect();
            let report = CheckReport::from_runs(&hashes);
            let t = Instant::now();
            let baseline = CampaignBaseline::capture(
                &result.id,
                &spec.workload,
                spec.scheme,
                spec.base_seed,
                &hashes[0],
                &report,
            );
            iso.capture_ns += ns(t);
            let t = Instant::now();
            let json = baseline.to_json();
            iso.encode_ns += ns(t);
            if result.report_json.as_deref() != Some(json.as_str()) {
                failures.push(format!(
                    "{}: report differs from its corpus runs",
                    spec.workload
                ));
            }
        }

        // workloads, tsim, core: per campaign, each run natively, then the
        // campaign under its scheme and natively, repeated with the
        // medians kept, so the differences between them are not noise.
        // Every repetition's counts must repeat the job's; the first
        // one's are reported.
        let mut configs = Vec::with_capacity(campaigns.len());
        for ((c, _), cached) in campaigns.iter().zip(&runs) {
            let spec = &c.spec;
            let native = CampaignSpec {
                scheme: Scheme::Native,
                ..spec.clone()
            };
            let mut times: [Vec<u64>; 4] = Default::default();
            let mut rcs = Vec::with_capacity(cached.len());
            for rep in 0..REPS {
                let (mut build, mut sim) = (0, 0);
                let mut alloc = None;
                rcs.clear();
                for (slot, run) in cached.iter().enumerate() {
                    let rc = run_config(spec, slot, alloc.as_ref());
                    let t = Instant::now();
                    let program = c.app.build();
                    build += ns(t);
                    let t = Instant::now();
                    let out = program
                        .run_with(&rc, NullMonitor)
                        .map_err(|e| format!("{}: {e}", spec.workload))?;
                    sim += ns(t);
                    if rep == 0 {
                        iso.runs += 1;
                        iso.steps += out.steps;
                        iso.instr += out.total_instructions();
                    }
                    if out.steps != run.steps || out.total_instructions() != run.native_instr {
                        failures.push(format!(
                            "{}: run {slot} took {} steps / {} instr, the corpus says {} / {}",
                            spec.workload,
                            out.steps,
                            out.total_instructions(),
                            run.steps,
                            run.native_instr
                        ));
                    }
                    if slot == 0 {
                        alloc = Some(out.alloc_log);
                    }
                    rcs.push(rc);
                }
                times[0].push(build);
                times[1].push(sim);

                let t = Instant::now();
                let checked = Checker::from_spec(spec)
                    .map_err(|e| e.to_string())?
                    .check(&*c.app.build)
                    .map_err(|e| format!("{}: {e}", spec.workload))?;
                times[2].push(ns(t));
                if rep == 0 {
                    iso.checkpoints += (checked.aligned_checkpoints * checked.runs) as u64;
                }
                if checked.aligned_checkpoints != c.app.expected_points {
                    failures.push(format!(
                        "{}: {} checkpoints in isolation",
                        spec.workload, checked.aligned_checkpoints
                    ));
                }
                let t = Instant::now();
                Checker::from_spec(&native)
                    .map_err(|e| e.to_string())?
                    .check(&*c.app.build)
                    .map_err(|e| format!("{}: {e}", spec.workload))?;
                times[3].push(ns(t));
            }
            let [build, sim, check, native] = times.map(median_ns);
            iso.build_ns += build;
            iso.sim_ns += sim;
            iso.check_ns += check;
            iso.native_ns += native;
            configs.push(rcs);
        }

        // adhash: each run's store stream, replayed through a delta batch
        // (timed) and store by store (the reference sum).
        let hasher = Mix64Hasher::default();
        for (((c, _), cached), rcs) in campaigns.iter().zip(&runs).zip(&configs) {
            for (slot, (run, rc)) in cached.iter().zip(rcs).enumerate() {
                let recorded = c
                    .app
                    .build()
                    .run_with(rc, StoreRecorder::default())
                    .map_err(|e| format!("{}: {e}", c.spec.workload))?
                    .monitor
                    .stores;
                let t = Instant::now();
                let mut batch = DeltaBatch::new();
                let mut sum = HashSum::ZERO;
                for &(addr, old, new) in &recorded {
                    batch.push(addr, old, new);
                    if batch.is_full() {
                        sum = sum.combine(batch.flush(&hasher));
                    }
                }
                sum = black_box(sum.combine(batch.flush(&hasher)));
                iso.update_ns += ns(t);
                iso.updates += recorded.len() as u64;
                let mut inc = IncHasher::new(hasher);
                for &(addr, old, new) in &recorded {
                    inc.on_write(addr, old, new);
                }
                if inc.sum() != sum || recorded.len() as u64 != run.hashes.stores {
                    failures.push(format!(
                        "{}: run {slot} replayed {} stores, the corpus says {}",
                        c.spec.workload,
                        recorded.len(),
                        run.hashes.stores
                    ));
                }
            }
        }

        Ok(())
    }
}

/// Corpus figures of the traced run.
#[derive(Debug)]
pub struct CorpusFigures {
    pub open_ms: f64,
    pub hits: u64,
    pub misses: u64,
    /// Stores made by the sampled jobs: one per simulated run.
    pub sampled_stores: u64,
    pub live_bytes: u64,
    pub arena_full: u64,
    pub quarantined: u64,
    pub keys_per_slot: f64,
}

fn div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics: per-operation costs from the isolation passes
/// and the traced jobs' spans, and each layer's share of the sampled
/// jobs' wall time.
///
/// A job's wall time is tiled by its spans (decode, new, submit, drain,
/// write). The drain is split into the isolated campaign work (checks of
/// the runs the job simulated, corpus lookups and appends, report
/// capture and encode) and the rest, `sched.drain_self_ms`. Whatever
/// the spans do not cover is `unattributed_share`. Shares are taken over
/// the sampled jobs, the ones the isolation passes re-ran.
pub fn per_layer(
    iso: &Isolation,
    traced: &[(Spans, CorpusDelta, f64)],
    sampled: &[(Spans, CorpusDelta, f64)],
    corpus: &CorpusFigures,
    campaigns_per_job: usize,
    runs_per_job: usize,
    runs_per_s: (f64, f64),
) -> Vec<Metric> {
    let mean = |jobs: &[(Spans, CorpusDelta, f64)], f: &dyn Fn(&Spans) -> u64| -> f64 {
        jobs.iter().map(|(s, _, _)| f(s) as f64).sum::<f64>() / jobs.len() as f64 / 1e6
    };
    let job_ms = sampled.iter().map(|(_, _, ms)| ms).sum::<f64>() / sampled.len() as f64;
    let decode_ms = mean(sampled, &|s| s.decode);
    let new_ms = mean(sampled, &|s| s.new);
    let submit_ms = mean(sampled, &|s| s.submit);
    let drain_ms = mean(sampled, &|s| s.drain);
    let write_ms = mean(sampled, &|s| s.write);

    let cpj = campaigns_per_job as f64;
    let rpj = runs_per_job as f64;
    let runs = iso.runs as f64;
    let campaigns = iso.campaigns as f64;
    // Runs a job simulated: every store is a simulated run's outcome.
    let sim_runs = div(
        sampled.iter().map(|(_, d, _)| d.stores as f64).sum::<f64>(),
        sampled.len() as f64,
    );
    let build_ms = div(iso.build_ns as f64, runs) / 1e6;
    let sim_ms = div(iso.sim_ns as f64, runs) / 1e6;
    let check_ms = div(iso.check_ns as f64, runs) / 1e6;
    let hash_ms = div(iso.check_ns as f64 - iso.native_ns as f64, runs) / 1e6;
    let lookup_ms = div(iso.lookup_ns as f64, runs) / 1e6;
    let store_ms = div(iso.store_ns as f64, runs) / 1e6;
    let capture_ms = div(iso.capture_ns as f64, campaigns) / 1e6;
    let encode_ms = div(iso.encode_ns as f64, campaigns) / 1e6;

    let workloads_job = sim_runs * build_ms;
    let tsim_job = sim_runs * sim_ms;
    let core_job = sim_runs * (check_ms - build_ms - sim_ms);
    let corpus_job = rpj * lookup_ms + sim_runs * store_ms;
    let report_job = cpj * (capture_ms + encode_ms) + write_ms;
    let drain_self = drain_ms - (sim_runs * check_ms + corpus_job + cpj * (capture_ms + encode_ms));
    let sched_job = new_ms + submit_ms + drain_self;
    let spanned = decode_ms + new_ms + submit_ms + drain_ms + write_ms;
    let share = |ms: f64| div(ms, job_ms);

    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m(
            "spec.decode_us",
            mean(traced, &|s| s.decode) * 1e3 / cpj,
            "us",
        ),
        m("sched.new_us", mean(traced, &|s| s.new) * 1e3, "us"),
        m(
            "sched.submit_us",
            mean(traced, &|s| s.submit) * 1e3 / cpj,
            "us",
        ),
        m("sched.drain_self_ms", drain_self, "ms"),
        m("workloads.build_us", build_ms * 1e3, "us"),
        m("tsim.steps", iso.steps as f64, "count"),
        m("tsim.instr", iso.instr as f64, "count"),
        m("tsim.sim_ms", sim_ms, "ms"),
        m(
            "tsim.ns_per_step",
            div(iso.sim_ns as f64, iso.steps as f64),
            "ns",
        ),
        m("adhash.updates", iso.updates as f64, "count"),
        m(
            "adhash.ns_per_update",
            div(iso.update_ns as f64, iso.updates as f64),
            "ns",
        ),
        m("core.check_ms", check_ms, "ms"),
        m("core.hash_ms", hash_ms, "ms"),
        m("core.checkpoints", iso.checkpoints as f64, "count"),
        m("corpus.open_ms", corpus.open_ms, "ms"),
        m("corpus.lookup_us", lookup_ms * 1e3, "us"),
        m(
            "corpus.hit_ratio",
            div(corpus.hits as f64, (corpus.hits + corpus.misses) as f64),
            "ratio",
        ),
        m("corpus.store_us", store_ms * 1e3, "us"),
        m("corpus.stores", corpus.sampled_stores as f64, "count"),
        m("corpus.live_bytes", corpus.live_bytes as f64, "B"),
        m("corpus.arena_full", corpus.arena_full as f64, "count"),
        m("corpus.quarantined", corpus.quarantined as f64, "count"),
        m("corpus.keys_per_slot", corpus.keys_per_slot, "ratio"),
        m("report.capture_us", capture_ms * 1e3, "us"),
        m("report.encode_us", encode_ms * 1e3, "us"),
        m(
            "report.write_us",
            mean(traced, &|s| s.write) * 1e3 / cpj,
            "us",
        ),
        m("spec.share", share(decode_ms), "ratio"),
        m("sched.share", share(sched_job), "ratio"),
        m("workloads.share", share(workloads_job), "ratio"),
        m("tsim.share", share(tsim_job), "ratio"),
        m("core.share", share(core_job), "ratio"),
        m("core.hash_share", share(sim_runs * hash_ms), "ratio"),
        m("corpus.share", share(corpus_job), "ratio"),
        m("report.share", share(report_job), "ratio"),
        m("unattributed_share", 1.0 - share(spanned), "ratio"),
        m("trace.runs_per_s", runs_per_s.0, "1/s"),
        m("trace.untraced_runs_per_s", runs_per_s.1, "1/s"),
    ]
}
