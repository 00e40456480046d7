//! One job of the closed loop: the path `icd --batch` takes, through the
//! public `sched` API, from the first spec line read to the last report
//! written. Like `icd`, a job writes one `<id>.report.json` per campaign;
//! `icd`'s other artifacts (`batch.jsonl`, `metrics.json`, ...) come
//! from its service layer and are not written.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use corpus::Corpus;
use instantcheck::CampaignSpec;
use sched::{
    CampaignResult, Orchestrator, OrchestratorConfig, ProgramSource, Resolver, Submission,
};

use crate::workload::{Job, JOBS, WIDTH};

/// Span durations of one traced job, in nanoseconds. The spans tile the
/// job: decode, then orchestrator construction, submission, drain, and
/// report writes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    pub decode: u64,
    pub new: u64,
    pub submit: u64,
    pub drain: u64,
    pub write: u64,
}

/// Corpus counter movement over one traced job.
#[derive(Debug, Clone, Copy)]
pub struct CorpusDelta {
    pub hits: u64,
    pub misses: u64,
    pub stores: u64,
}

/// What one job produced.
pub struct JobRun {
    pub wall: Duration,
    pub results: Vec<CampaignResult>,
    /// Present when the job ran traced.
    pub spans: Option<(Spans, CorpusDelta)>,
}

/// Maps `app:full` / `app:scaled` workload ids onto registered kernels,
/// as `icd` does.
pub fn resolver() -> Resolver {
    Arc::new(|workload: &str| -> Option<ProgramSource> {
        let (app, scale) = workload.split_once(':')?;
        let scaled = match scale {
            "scaled" => true,
            "full" => false,
            _ => return None,
        };
        instantcheck_workloads::by_name(app, scaled).map(|a| a.build)
    })
}

/// Laps a clock only when tracing, so the untraced loop reads no clock
/// inside a job.
struct Lap {
    last: Option<Instant>,
}

impl Lap {
    fn ns(&mut self) -> u64 {
        match &mut self.last {
            None => 0,
            Some(last) => {
                let now = Instant::now();
                let d = now.duration_since(*last).as_nanos() as u64;
                *last = now;
                d
            }
        }
    }
}

/// Where a campaign's report is written, named as `icd --batch` names
/// it. Ids are the orchestrator's defaults (`c0`, `c1`, ...), safe as
/// file names.
pub fn report_path(out: &Path, id: &str) -> PathBuf {
    out.join(format!("{id}.report.json"))
}

/// Writes one artifact as `icd` does: into a temporary file, renamed
/// over the target, so a reader never sees a torn file.
fn write_artifact(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

fn counters(corpus: &Corpus) -> CorpusDelta {
    CorpusDelta {
        hits: corpus.hits(),
        misses: corpus.misses(),
        stores: corpus.stores(),
    }
}

/// Runs `job` through a fresh orchestrator over `corpus` and writes
/// every report to its [`report_path`] under `out`.
pub fn run_job(
    job: &Job,
    corpus: &Arc<Corpus>,
    resolver: &Resolver,
    out: &Path,
    traced: bool,
) -> Result<JobRun, String> {
    let before = traced.then(|| counters(corpus));
    let start = Instant::now();
    let mut lap = Lap {
        last: traced.then_some(start),
    };
    let mut spans = Spans::default();

    let mut submissions = Vec::with_capacity(job.campaigns.len());
    for c in &job.campaigns {
        let value = obs::json::parse(&c.line)?;
        let spec = CampaignSpec::from_value(&value)?;
        submissions.push(Submission::new(String::new(), spec));
    }
    spans.decode = lap.ns();

    let config = OrchestratorConfig {
        width: WIDTH,
        job_budget: JOBS,
        queue_capacity: submissions.len().max(1),
        ..OrchestratorConfig::default()
    };
    let mut orchestrator =
        Orchestrator::new(config, Arc::clone(resolver), Some(Arc::clone(corpus)));
    spans.new = lap.ns();

    for submission in submissions {
        orchestrator.submit(submission);
    }
    spans.submit = lap.ns();

    let results = orchestrator.drain();
    spans.drain = lap.ns();

    for r in &results {
        if let Some(report) = &r.report_json {
            let path = report_path(out, &r.id);
            write_artifact(&path, report).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    spans.write = lap.ns();
    let wall = start.elapsed();

    let spans = before.map(|b| {
        let a = counters(corpus);
        let delta = CorpusDelta {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            stores: a.stores - b.stores,
        };
        (spans, delta)
    });
    Ok(JobRun {
        wall,
        results,
        spans,
    })
}
