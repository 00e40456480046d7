//! End-to-end campaign benchmark.
//!
//! A closed loop with one client: each job decodes a batch of spec lines,
//! submits them to a fresh `sched::Orchestrator` over one shared
//! `corpus::Corpus`, drains it, and writes every report, the path
//! `icd --batch` takes. The next job starts only when the previous one
//! has written its reports. Every report passes a verdict gate before it
//! counts.
//!
//! ```text
//! perfbench --workload <cold-sync|cold-compute|warm-replay> --seed N
//!           --seconds S --trace <0|1> --scratch DIR
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` traces every
//! other job, re-runs a few traced jobs layer by layer, and prints the
//! per-layer metrics. The last line of standard
//! output is the result object. Everything the benchmark writes goes
//! under `--scratch`.

mod job;
mod layers;
mod workload;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use corpus::{Corpus, CorpusOptions};
use sched::{CampaignStatus, Resolver};

use crate::job::{report_path, run_job, CorpusDelta, JobRun, Spans};
use crate::layers::{CorpusFigures, Isolation, Isolator};
use crate::workload::{check_report, Generator, Job, Workload, JOBS, RUNS, WIDTH};

/// Set-ups timed before measuring; `setup_s` is the median of all the
/// set-ups of a run. The first two set-ups of a process run with cold
/// caches and take about twice as long as the rest; five keep them from
/// setting the median.
const SETUP_REPS: usize = 5;

/// Set-ups shorter than this (the cold workloads', which open an empty
/// corpus, take about a millisecond) are also timed between jobs,
/// one every [`SETUP_INTERVAL`], so their median covers the host's state
/// over the whole run and not only its first moments.
const SAMPLED_SETUP: f64 = 0.05;
const SETUP_INTERVAL: Duration = Duration::from_secs(1);

/// Jobs pre-recorded for warm-replay. Each pass over them reopens the
/// corpus, so every lookup misses the memo and reads one record.
const POOL_JOBS: usize = 2;

/// Jobs a cold corpus serves before an empty one replaces it, so neither
/// the corpus nor the memory it holds grows with the speed of the jobs.
const COLD_CORPUS_JOBS: usize = 16;

/// Traced jobs re-run layer by layer: one rotation through the mix, and
/// at least this many.
const ISOLATED_JOBS: usize = 3;

/// Jobs `job_tail_ms` wants above its percentile.
const TAIL_JOBS_ABOVE: usize = 10;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut scratch) =
        (None, None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                });
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        scratch: scratch.ok_or_else(|| missing("--scratch"))?,
    })
}

/// Opens the corpus at `dir` and builds its index, so no job pays the
/// lazy scan.
pub fn open_corpus(dir: &Path) -> Result<(Arc<Corpus>, Duration), String> {
    let t = Instant::now();
    let corpus = Corpus::open(CorpusOptions::at(dir)).map_err(|e| e.to_string())?;
    corpus.run_count();
    Ok((Arc::new(corpus), t.elapsed()))
}

/// Outcome counts of every campaign the benchmark ran.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts `count` failed items, printing the first few reasons.
    fn fail(&mut self, count: u64, error: String) {
        if self.failed < 10 {
            eprintln!("perfbench: correctness: {error}");
        }
        self.failed += count;
    }

    /// The verdict gate over the reports one job wrote into `out`.
    fn gate(&mut self, job: &Job, run: &JobRun, out: &Path) {
        if run.results.len() != job.campaigns.len() {
            let campaigns = job.campaigns.len() as u64;
            self.attempted += campaigns;
            self.fail(
                campaigns,
                format!(
                    "{} results for {} campaigns",
                    run.results.len(),
                    job.campaigns.len()
                ),
            );
            return;
        }
        for (i, (c, r)) in job.campaigns.iter().zip(&run.results).enumerate() {
            self.attempted += 1;
            let verdict = match (&r.status, &r.report_json) {
                (CampaignStatus::Completed, Some(report)) => {
                    let written = fs::read_to_string(report_path(out, &r.id)).ok();
                    if written.as_ref() != Some(report) {
                        Err(format!(
                            "{}: {}.report.json does not hold its report",
                            c.spec.workload, r.id
                        ))
                    } else {
                        check_report(&c.app, report)
                    }
                    .and_then(|()| match &job.cold_reports {
                        Some(cold) if cold[i] != *report => Err(format!(
                            "{}: warm report differs from cold",
                            c.spec.workload
                        )),
                        _ => Ok(()),
                    })
                }
                _ => Err(format!(
                    "{}: {} ({})",
                    c.spec.workload,
                    r.status.label(),
                    r.error.as_deref().unwrap_or("no report")
                )),
            };
            if let Err(e) = verdict {
                self.fail(1, e);
            }
        }
    }
}

/// Everything the measuring loop runs against.
struct Bench {
    generator: Generator,
    resolver: Resolver,
    corpus: Arc<Corpus>,
    /// Where this set-up keeps its corpora and reports.
    root: PathBuf,
    corpus_dir: PathBuf,
    /// Corpora replaced so far.
    generation: usize,
    /// The jobs' output directory.
    reports: PathBuf,
    /// Pre-recorded jobs (warm-replay only) and the next one to replay.
    pool: Vec<Arc<Job>>,
    next: usize,
    /// Every open of the corpus, index scan included.
    opens: Vec<Duration>,
    /// Records quarantined by corpus instances already closed.
    closed_quarantined: u64,
}

impl Bench {
    /// Gets ready to measure: a fresh corpus and, for warm-replay, the
    /// pool recorded cold and the corpus reopened.
    fn setup(args: &Args, dir: &Path, tally: &mut Tally) -> Result<Bench, String> {
        let reports = dir.join("reports");
        fs::create_dir_all(&reports).map_err(|e| format!("{}: {e}", reports.display()))?;
        let corpus_dir = dir.join("corpus-0");
        let (corpus, opened) = open_corpus(&corpus_dir)?;
        let mut bench = Bench {
            generator: Generator::new(args.workload, args.seed)?,
            resolver: job::resolver(),
            corpus,
            root: dir.to_path_buf(),
            corpus_dir,
            generation: 0,
            reports,
            pool: Vec::new(),
            next: 0,
            opens: vec![opened],
            closed_quarantined: 0,
        };
        if args.workload == Workload::WarmReplay {
            for _ in 0..POOL_JOBS {
                let mut job = bench.generator.next_job();
                let run = bench.run(&job, false, tally)?;
                job.cold_reports = Some(
                    run.results
                        .into_iter()
                        .map(|r| r.report_json.unwrap_or_default())
                        .collect(),
                );
                bench.pool.push(Arc::new(job));
            }
            bench.reopen()?;
            let expected = POOL_JOBS * bench.pool[0].runs();
            if bench.corpus.run_count() != expected {
                return Err(format!(
                    "pool corpus holds {} runs, expected {expected}",
                    bench.corpus.run_count()
                ));
            }
        }
        Ok(bench)
    }

    /// Runs one job, gates the reports it wrote, and removes them, so
    /// the next job writes into an empty directory as a CI job starts
    /// from a clean workspace. A rename that replaced a file would, on
    /// ext4, start writeback of the new one inside the job, putting the
    /// host's disk into the job's time.
    fn run(&self, job: &Job, traced: bool, tally: &mut Tally) -> Result<JobRun, String> {
        let run = run_job(job, &self.corpus, &self.resolver, &self.reports, traced)?;
        tally.gate(job, &run, &self.reports);
        for r in run.results.iter().filter(|r| r.report_json.is_some()) {
            let written = report_path(&self.reports, &r.id);
            fs::remove_file(&written).map_err(|e| format!("{}: {e}", written.display()))?;
        }
        Ok(run)
    }

    /// Jobs one corpus instance serves: a pass over the pool for
    /// warm-replay, [`COLD_CORPUS_JOBS`] for the cold workloads.
    fn jobs_per_corpus(&self) -> usize {
        if self.pool.is_empty() {
            COLD_CORPUS_JOBS
        } else {
            self.pool.len()
        }
    }

    /// Replaces the corpus instance: warm-replay reopens the same store
    /// with a cold memo; the cold workloads start over with an empty one.
    fn reopen(&mut self) -> Result<(), String> {
        self.closed_quarantined += self.corpus.quarantined();
        let old_dir = self.corpus_dir.clone();
        if self.pool.is_empty() {
            self.generation += 1;
            self.corpus_dir = self.root.join(format!("corpus-{}", self.generation));
        }
        let (corpus, opened) = open_corpus(&self.corpus_dir)?;
        drop(std::mem::replace(&mut self.corpus, corpus));
        self.opens.push(opened);
        if old_dir != self.corpus_dir {
            fs::remove_dir_all(&old_dir).map_err(|e| format!("{}: {e}", old_dir.display()))?;
        }
        Ok(())
    }

    /// The next job: fresh seeds for the cold workloads, the next pool
    /// entry for warm-replay; a new corpus instance every
    /// [`jobs_per_corpus`](Bench::jobs_per_corpus) jobs.
    fn next_job(&mut self) -> Result<Arc<Job>, String> {
        if self.next == self.jobs_per_corpus() {
            self.reopen()?;
            self.next = 0;
        }
        let job = match self.pool.get(self.next) {
            Some(job) => Arc::clone(job),
            None => Arc::new(self.generator.next_job()),
        };
        self.next += 1;
        Ok(job)
    }

    fn quarantined(&self) -> u64 {
        self.closed_quarantined + self.corpus.quarantined()
    }
}

/// One measured job.
struct Record {
    wall: Duration,
    runs: usize,
    spans: Option<(Spans, CorpusDelta)>,
    /// Whether the isolation passes re-ran this job.
    isolated: bool,
    /// Whether the job ran right after an isolation pass, whose caches
    /// and heap it inherits.
    after_isolation: bool,
}

/// The set-ups of a run and their timings.
struct Setups<'a> {
    args: &'a Args,
    times: Vec<f64>,
    /// Whether set-ups are also timed between jobs.
    sampled: bool,
    last: Instant,
}

impl<'a> Setups<'a> {
    /// Times [`SETUP_REPS`] set-ups and returns the last one to measure
    /// against.
    fn new(args: &'a Args, tally: &mut Tally) -> Result<(Setups<'a>, Bench), String> {
        let mut setups = Setups {
            args,
            times: Vec::new(),
            sampled: false,
            last: Instant::now(),
        };
        let mut bench = setups.time(tally)?;
        while setups.times.len() < SETUP_REPS {
            discard(bench);
            bench = setups.time(tally)?;
        }
        setups.sampled = setups.median() < SAMPLED_SETUP;
        Ok((setups, bench))
    }

    fn time(&mut self, tally: &mut Tally) -> Result<Bench, String> {
        let dir = self
            .args
            .scratch
            .join(format!("setup-{}", self.times.len()));
        let t = Instant::now();
        let bench = Bench::setup(self.args, &dir, tally)?;
        self.times.push(t.elapsed().as_secs_f64());
        self.last = Instant::now();
        Ok(bench)
    }

    /// Between jobs: times one more set-up, and throws it away, when
    /// set-ups are sampled and [`SETUP_INTERVAL`] has passed.
    fn sample(&mut self, tally: &mut Tally) -> Result<(), String> {
        if self.sampled && self.last.elapsed() >= SETUP_INTERVAL {
            discard(self.time(tally)?);
        }
        Ok(())
    }

    fn median(&self) -> f64 {
        median(&mut self.times.clone())
    }
}

/// Closes a set-up and removes what it wrote.
fn discard(bench: Bench) {
    let dir = bench.root.clone();
    drop(bench);
    let _ = fs::remove_dir_all(&dir);
}

/// Runs jobs until `seconds` have passed. With an isolator every other
/// job is traced, so traced and untraced jobs see the same host state,
/// and the first traced jobs are re-run layer by layer as they finish.
fn measure(
    bench: &mut Bench,
    seconds: f64,
    mut isolator: Option<&mut Isolator>,
    setups: &mut Setups,
    tally: &mut Tally,
) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    let mut after_isolation = false;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        setups.sample(tally)?;
        let job = bench.next_job()?;
        let traced = isolator.is_some() && records.len() % 2 == 1;
        let run = bench.run(&job, traced, tally)?;
        let mut isolated = false;
        if let Some(isolator) = isolator
            .as_deref_mut()
            .filter(|i| traced && i.remaining > 0)
        {
            isolator.isolate(&job, &run, &bench.corpus, &bench.corpus_dir)?;
            isolated = true;
        }
        records.push(Record {
            wall: run.wall,
            runs: job.runs(),
            spans: run.spans,
            isolated,
            after_isolation,
        });
        after_isolation = isolated;
    }
    Ok(records)
}

fn runs_per_s<'a>(records: impl Iterator<Item = &'a Record>) -> f64 {
    let (runs, secs) = records.fold((0, 0.0), |(runs, secs), r| {
        (runs + r.runs, secs + r.wall.as_secs_f64())
    });
    runs as f64 / secs
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The nearest-rank `p`th percentile of sorted `values`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `sorted` lie above `value`.
fn above(sorted: &[f64], value: f64) -> usize {
    sorted.iter().filter(|&&x| x > value).count()
}

/// Steal and total CPU ticks of the host so far (`/proc/stat`): steal
/// is time the hypervisor ran someone else while this VM wanted a CPU.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map_while(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident memory of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    )
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let mut tally = Tally::default();
    let (mut setups, mut bench) = Setups::new(args, &mut tally)?;
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"width\":{WIDTH},\"jobs\":{JOBS},\"campaigns_per_job\":{},\"runs_per_campaign\":{RUNS},\"available_parallelism\":{}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        bench.generator.campaigns_per_job(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let ticks_before = cpu_ticks();
    let metrics = if args.trace {
        let warm = args.workload == Workload::WarmReplay;
        let sampled = bench.generator.job_kinds().max(ISOLATED_JOBS);
        let mut isolator = Isolator::new(&args.scratch.join("isolation-corpus"), warm, sampled)?;
        let records = measure(
            &mut bench,
            args.seconds,
            Some(&mut isolator),
            &mut setups,
            &mut tally,
        )?;
        for f in std::mem::take(&mut isolator.failures) {
            tally.fail(1, f);
        }
        let rps = (
            runs_per_s(records.iter().filter(|r| r.spans.is_some())),
            runs_per_s(
                records
                    .iter()
                    .filter(|r| r.spans.is_none() && !r.after_isolation),
            ),
        );
        trace_metrics(&bench, &records, &isolator.iso, rps)?
    } else {
        let records = measure(&mut bench, args.seconds, None, &mut setups, &mut tally)?;
        let mut walls: Vec<f64> = records.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
        let p50 = median(&mut walls);
        let p = args.workload.tail_percentile();
        let tail_ms = percentile(&walls, p);
        let beyond = above(&walls, tail_ms);
        println!(
            "{}: {} jobs, job_p50_ms {p50:.3}, job_tail_ms = p{p} {tail_ms:.3} ({beyond} jobs above it)",
            args.workload.name(),
            records.len(),
        );
        if beyond < TAIL_JOBS_ABOVE {
            println!(
                "warning: job_tail_ms has {beyond} jobs above p{p}, fewer than {TAIL_JOBS_ABOVE}; it is not a steady figure"
            );
        }
        let metric = |name, value, unit| Metric { name, value, unit };
        vec![
            metric("runs_per_s", runs_per_s(records.iter()), "1/s"),
            metric("job_p50_ms", p50, "ms"),
            metric("job_tail_ms", tail_ms, "ms"),
            metric("setup_s", setups.median(), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    };
    let quarantined = bench.quarantined();
    if quarantined != 0 {
        tally.fail(
            quarantined,
            format!("{quarantined} corpus records quarantined"),
        );
    }
    // Steal varies with other tenants of the host and moves every
    // timing; it is reported so a change of host state can be told from
    // a regression.
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("host steal share while measuring: {share:.3}");
    }
    println!(
        "failed_frac {} ({} of {} campaigns failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for m in &metrics {
        if m.unit == "count" {
            println!("  {:<28} {:>16} {}", m.name, m.value as u64, m.unit);
        } else {
            println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    println!("{}", result_line(&tally, &metrics));
    Ok(if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn trace_metrics(
    bench: &Bench,
    records: &[Record],
    iso: &Isolation,
    rps: (f64, f64),
) -> Result<Vec<Metric>, String> {
    let log = bench.corpus.log_stats().unwrap_or_default();
    let cache = bench.corpus.cache_stats();
    let mut opens: Vec<f64> = bench.opens.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    let spans: Vec<(Spans, CorpusDelta, f64)> = records
        .iter()
        .filter_map(|r| r.spans.map(|(s, d)| (s, d, r.wall.as_secs_f64() * 1e3)))
        .collect();
    let sampled: Vec<(Spans, CorpusDelta, f64)> = records
        .iter()
        .filter(|r| r.isolated)
        .filter_map(|r| r.spans.map(|(s, d)| (s, d, r.wall.as_secs_f64() * 1e3)))
        .collect();
    if sampled.is_empty() {
        return Err("no traced job was re-run layer by layer".to_owned());
    }
    let figures = CorpusFigures {
        open_ms: median(&mut opens),
        hits: spans.iter().map(|(_, d, _)| d.hits).sum(),
        misses: spans.iter().map(|(_, d, _)| d.misses).sum(),
        sampled_stores: sampled.iter().map(|(_, d, _)| d.stores).sum(),
        live_bytes: log.live_bytes,
        arena_full: cache.arena_full,
        quarantined: bench.quarantined(),
        keys_per_slot: (bench.jobs_per_corpus() * records[0].runs) as f64
            / bench.corpus.cache_capacity() as f64,
    };
    Ok(layers::per_layer(
        iso,
        &spans,
        &sampled,
        &figures,
        bench.generator.campaigns_per_job(),
        records[0].runs,
        rps,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
