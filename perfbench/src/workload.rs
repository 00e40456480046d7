//! The three workloads: which kernels and schemes every job batches, how
//! a job's spec lines are drawn from the seed, and what each campaign's
//! report must say for the job to count as correct.

use adhash::FpRound;
use corpus::CampaignBaseline;
use instantcheck::{CampaignSpec, DetClass, Scheme};
use instantcheck_workloads::AppSpec;

/// Runs per campaign: the size of the committed corpus specs
/// (`results/corpus/specs/*-r8-*.spec.json`), so per-campaign fixed
/// costs weigh against per-run work as they do in the campaigns the
/// repository serves.
pub const RUNS: usize = 8;

/// Campaign worker threads (`CampaignSpec::jobs` and the orchestrator's
/// job budget). With [`WIDTH`] 1 one campaign runs at a time, on one
/// CPU, and every layer's time adds up serially to the job's wall time.
pub const JOBS: usize = 1;

/// Orchestrator width: one campaign at a time.
pub const WIDTH: usize = 1;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Never-seen seeds over the full-scale sync-heavy kernels: nearly
    /// all wall time is `tsim` thread handoffs.
    ColdSync,
    /// Never-seen seeds over full-scale kernels with few steps and heavy
    /// stores, under the three checking schemes: hashing and checkpoint
    /// traversal are a large share.
    ColdCompute,
    /// The cold-compute campaigns again, every run already on disk:
    /// spec decode, per-campaign `sched` cost, the corpus read path and
    /// report encode.
    WarmReplay,
}

impl Workload {
    /// Parses a workload name as the command line gives it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-sync" => Some(Workload::ColdSync),
            "cold-compute" => Some(Workload::ColdCompute),
            "warm-replay" => Some(Workload::WarmReplay),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSync => "cold-sync",
            Workload::ColdCompute => "cold-compute",
            Workload::WarmReplay => "warm-replay",
        }
    }

    /// The kernels and schemes of this workload: one campaign per
    /// (kernel, scheme) pair.
    fn mix(self) -> (&'static [&'static str], &'static [Scheme]) {
        match self {
            Workload::ColdSync => (
                &[
                    "canneal",
                    "blackscholes",
                    "waterNS",
                    "waterSP",
                    "fluidanimate",
                    "pbzip2",
                    "radiosity",
                ],
                &[Scheme::HwInc],
            ),
            Workload::ColdCompute | Workload::WarmReplay => (
                &["fft", "lu", "radix", "barnes", "volrend"],
                &[Scheme::HwInc, Scheme::SwInc, Scheme::SwTr],
            ),
        }
    }

    /// Campaigns one job batches. A cold job is one campaign (a CI job
    /// checking one kernel), and successive jobs rotate through the mix;
    /// a warm job replays the whole mix, whose runs cost microseconds.
    fn campaigns_per_job(self, pairs: usize) -> usize {
        match self {
            Workload::ColdSync | Workload::ColdCompute => 1,
            Workload::WarmReplay => pairs,
        }
    }

    /// The percentile `job_tail_ms` reports, fixed so that parent and
    /// change are compared on the same one. Each keeps at least ten jobs
    /// above it in a 30 s run even at half the speed seen on a 2-vCPU
    /// Xeon VM (cold-sync ~190 jobs, cold-compute ~840, warm-replay
    /// ~6000), and stays inside one kernel's band of job times, away
    /// from an edge where one job more or less would jump to another
    /// kernel (cold-sync p80 is among canneal's jobs). Warm-replay stops
    /// at p90: its jobs take a few milliseconds, and the slowest few
    /// percent are the ones the hypervisor or the filesystem journal
    /// stalled, so a higher percentile there measures the host.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::ColdSync => 80.0,
            Workload::ColdCompute => 95.0,
            Workload::WarmReplay => 90.0,
        }
    }
}

/// One campaign of a job.
pub struct Campaign {
    /// The spec as the client submits it: one line of canonical JSON.
    pub line: String,
    /// The spec the line encodes.
    pub spec: CampaignSpec,
    /// The kernel it runs, for the verdict gate.
    pub app: AppSpec,
}

/// One batch of campaigns, submitted together and drained together.
pub struct Job {
    /// The batch, in submission order.
    pub campaigns: Vec<Campaign>,
    /// The report bytes recorded cold for each campaign; set for
    /// warm-replay, whose reports must equal them byte for byte.
    pub cold_reports: Option<Vec<String>>,
}

impl Job {
    /// Runs the job asks for.
    pub fn runs(&self) -> usize {
        self.campaigns.iter().map(|c| c.spec.runs).sum()
    }
}

/// Draws jobs from the workload seed. The same seed yields the same
/// jobs; every campaign gets fresh scheduler seeds, so no run key
/// repeats within a run of the benchmark.
pub struct Generator {
    state: u64,
    pairs: Vec<(AppSpec, Scheme)>,
    per_job: usize,
    /// The pair the next job starts at.
    next_pair: usize,
}

impl Generator {
    /// A generator for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Result<Generator, String> {
        let (kernels, schemes) = workload.mix();
        let mut pairs = Vec::new();
        for name in kernels {
            let app = instantcheck_workloads::by_name(name, false)
                .ok_or_else(|| format!("unknown kernel {name}"))?;
            for &scheme in schemes {
                pairs.push((app.clone(), scheme));
            }
        }
        let tag = corpus::fnv64(workload.name().as_bytes());
        Ok(Generator {
            state: seed ^ tag,
            per_job: workload.campaigns_per_job(pairs.len()),
            pairs,
            next_pair: 0,
        })
    }

    /// Campaigns per job.
    pub fn campaigns_per_job(&self) -> usize {
        self.per_job
    }

    /// Distinct jobs in one rotation through the mix. It is odd, so
    /// tracing every other job still traces every kind of job.
    pub fn job_kinds(&self) -> usize {
        self.pairs.len() / self.per_job
    }

    /// SplitMix64.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next job: the next [`campaigns_per_job`] pairs of the mix,
    /// each campaign with a base seed of its own.
    ///
    /// [`campaigns_per_job`]: Generator::campaigns_per_job
    pub fn next_job(&mut self) -> Job {
        let mut campaigns = Vec::with_capacity(self.per_job);
        for _ in 0..self.per_job {
            // Halved so `base_seed + run` cannot overflow.
            let base_seed = self.next_u64() >> 1;
            let (app, scheme) = &self.pairs[self.next_pair];
            self.next_pair = (self.next_pair + 1) % self.pairs.len();
            let spec = spec_for(app, *scheme, base_seed);
            campaigns.push(Campaign {
                line: spec.to_json(),
                spec,
                app: app.clone(),
            });
        }
        Job {
            campaigns,
            cold_reports: None,
        }
    }
}

/// The spec a client would write for `app`: the rounding and ignore set
/// its determinism class needs, so the verdict is the kernel's class.
fn spec_for(app: &AppSpec, scheme: Scheme, base_seed: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::new(format!("{}:full", app.name), scheme)
        .with_runs(RUNS)
        .with_base_seed(base_seed)
        .with_jobs(JOBS);
    let class = app.expected_class;
    if app.uses_fp && matches!(class, DetClass::FpRounded | DetClass::IgnoringStructs) {
        spec.rounding = Some(FpRound::default());
    }
    if class == DetClass::IgnoringStructs {
        spec.ignore = app.ignore.clone();
    }
    spec
}

/// The verdict gate for one report: it must parse, cover every run with
/// none failed, hold the kernel's checkpoint count, and give the verdict
/// of the kernel's determinism class.
pub fn check_report(app: &AppSpec, report: &str) -> Result<(), String> {
    let b = CampaignBaseline::from_json(report)?;
    if b.runs != RUNS || b.failed_runs != 0 {
        return Err(format!(
            "{}: {} runs with {} failed, expected {RUNS} with none failed",
            app.name, b.runs, b.failed_runs
        ));
    }
    if b.reference.len() != app.expected_points {
        return Err(format!(
            "{}: {} checkpoints, expected {}",
            app.name,
            b.reference.len(),
            app.expected_points
        ));
    }
    let nondeterministic = app.expected_class == DetClass::Nondeterministic;
    let verdict_ok = if nondeterministic {
        !b.det_at_end && b.ndet_points > 0
    } else {
        b.det_at_end && b.ndet_points == 0
    };
    if !verdict_ok {
        return Err(format!(
            "{}: det_at_end={} ndet_points={} contradicts class {:?}",
            app.name, b.det_at_end, b.ndet_points, app.expected_class
        ));
    }
    Ok(())
}
