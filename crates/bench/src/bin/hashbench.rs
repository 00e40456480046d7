//! `hashbench` — wall-clock throughput of the store→hash hot path.
//!
//! Sweeps store-heavy kernels (single-threaded scaled-up `canneal` and
//! `fluidanimate`, a synthetic store-storm, and a multi-threaded storm
//! variant) under the Native / HwInc / SwInc schemes and reports
//! stores/sec and ns/store, plus the modeled hash-update counts so the
//! fold cost can be attributed. Writes `results/BENCH_hash.json`; with
//! `--baseline FILE` the previous numbers are embedded in the same
//! artifact and per-row speedups computed — the committed regression
//! trajectory for the engine hot path.
//!
//! Flags:
//!   --reps N          timing repetitions per row (default 5)
//!   --scale F         scale kernel sizes by F (default 1.0; CI smoke
//!                     uses a small F)
//!   --emit-baseline   also write results/BENCH_hash.baseline.jsonl
//!                     (one row per line, for a later --baseline run)
//!   --baseline FILE   embed FILE's rows as the "before" numbers
//!
//! Each row's last repetition also streams `run` begin/end events
//! (mirroring the checker's trace shape, including the `hash_updates`
//! breakdown) into `results/hashbench.trace.jsonl`, so `icprof` can
//! attribute fold time vs engine time from the same artifact set.

use std::time::Instant;

use adhash::{IncHasher, Mix64Hasher};
use instantcheck::{CheckMonitor, IgnoreSpec, Scheme};
use instantcheck_bench::timing::mean_stddev;
use instantcheck_bench::{write_json, write_trace, Reporter};
use instantcheck_workloads::apps::{canneal, fluidanimate};
use obs::{Event, CONTROL_TRACK};
use tsim::{Program, ProgramBuilder, RunConfig, ValKind};

/// One measured (kernel, scheme) combination.
struct Row {
    kernel: String,
    scheme: Scheme,
    threads: usize,
    reps: usize,
    stores: u64,
    hash_updates: u64,
    hash_instr: u64,
    checkpoints: u64,
    wall_ns_best: u64,
    wall_ns_mean: f64,
    wall_ns_stddev: f64,
    stores_per_sec: f64,
    ns_per_store: f64,
    /// Estimated fraction of wall time spent folding hash deltas
    /// (hash_updates/2 fused deltas × the calibrated per-delta cost).
    fold_share_est: f64,
    /// ns/store of the same row in the `--baseline` file, if given.
    before_ns_per_store: Option<f64>,
    /// stores/sec gain over the baseline row, if given.
    speedup: Option<f64>,
}

struct Kernel {
    name: &'static str,
    threads: usize,
    build: Box<dyn Fn() -> Program>,
}

fn kernels(scale: f64) -> Vec<Kernel> {
    let s = |n: usize| ((n as f64 * scale) as usize).max(1);
    let canneal_params = canneal::Params {
        threads: 1,
        elements: 4096,
        steps: 32,
        swaps_per_step: s(2048),
    };
    let fluid_params = fluidanimate::Params {
        threads: 1,
        cells_per_thread: s(32768),
        timesteps: 4,
    };
    let storm_passes = s(64);
    let storm_mt_passes = s(24);
    vec![
        Kernel {
            name: "canneal",
            threads: 1,
            build: Box::new(move || canneal::build(&canneal_params)),
        },
        Kernel {
            name: "fluidanimate",
            threads: 1,
            build: Box::new(move || fluidanimate::build(&fluid_params)),
        },
        Kernel {
            name: "store_storm",
            threads: 1,
            build: Box::new(move || store_storm(1, 8192, storm_passes)),
        },
        Kernel {
            name: "store_storm_mt",
            threads: 4,
            build: Box::new(move || store_storm(4, 4096, storm_mt_passes)),
        },
    ]
}

/// The synthetic store-storm microkernel: each thread sweeps a private
/// slab with plain stores, pass after pass — the purest exercise of the
/// per-store engine path (no locks; barriers only between passes in the
/// multi-threaded variant).
fn store_storm(threads: usize, words_per_thread: usize, passes: usize) -> Program {
    let n = threads * words_per_thread;
    let mut b = ProgramBuilder::new(threads);
    let slab = b.global("slab", ValKind::U64, n);
    let bar = (threads > 1).then(|| b.barrier());
    for tid in 0..threads {
        b.thread(move |ctx| async move {
            let lo = tid * words_per_thread;
            for pass in 0..passes {
                let salt = (pass as u64) << 32 | tid as u64;
                for i in 0..words_per_thread {
                    ctx.store(slab.at(lo + i), salt ^ (i as u64).wrapping_mul(0x9e37))
                        .await;
                }
                if let Some(bar) = bar {
                    ctx.barrier(bar).await;
                }
            }
        });
    }
    b.build()
}

/// Calibrates the cost of one fused `hash_delta` fold (serial, through
/// one running sum — the unbatched per-store shape).
fn calibrate_delta_ns() -> f64 {
    let mut inc = IncHasher::new(Mix64Hasher::default());
    let iters = 4_000_000u64;
    // Warm up, then measure.
    for round in 0..2 {
        let start = Instant::now();
        for i in 0..iters {
            inc.on_write(0x1000 + (i % 8192), i, i ^ 0x5bd1);
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        std::hint::black_box(inc.sum());
        if round == 1 {
            return elapsed / iters as f64;
        }
    }
    unreachable!()
}

fn run_row(
    kernel: &Kernel,
    scheme: Scheme,
    reps: usize,
    delta_ns: f64,
    trace: &mut Vec<Event>,
    reporter: &Reporter,
) -> Row {
    let mut wall_ns: Vec<f64> = Vec::with_capacity(reps);
    let mut stores = 0u64;
    let mut hash_updates = 0u64;
    let mut hash_instr = 0u64;
    let mut checkpoints = 0u64;
    let mut steps = 0u64;
    let mut native_instr = 0u64;
    for _ in 0..reps {
        let monitor = CheckMonitor::new(scheme, None, IgnoreSpec::new());
        let prog = (kernel.build)();
        let config = RunConfig::random(1);
        let start = Instant::now();
        let out = prog
            .run_with(&config, monitor)
            .expect("bench run completes");
        wall_ns.push(start.elapsed().as_nanos() as f64);
        steps = out.steps;
        native_instr = out.total_instructions();
        let hashes = out.monitor.into_hashes();
        stores = hashes.stores;
        hash_updates = hashes.hash_updates;
        hash_instr = hashes.extra_instr;
        checkpoints = hashes.checkpoints.len() as u64;
    }
    let best = wall_ns.iter().copied().fold(f64::MAX, f64::min);
    let (mean, stddev) = mean_stddev(&wall_ns);
    let fold_ns = hash_updates as f64 / 2.0 * delta_ns;
    let run_idx = trace.len() as u64 / 2;
    trace.push(
        Event::begin(0, CONTROL_TRACK, "run")
            .with_arg("run", run_idx)
            .with_arg("seed", 1u64)
            .with_arg("kernel", kernel.name)
            .with_arg("scheme", scheme.name()),
    );
    trace.push(
        Event::end(steps, CONTROL_TRACK, "run")
            .with_arg("ok", true)
            .with_arg("steps", steps)
            .with_arg("native_instr", native_instr)
            .with_arg("hash_instr", hash_instr)
            .with_arg("zero_fill_instr", 0u64)
            .with_arg("stores", stores)
            .with_arg("hash_updates", hash_updates)
            .with_arg("checkpoints", checkpoints),
    );
    let row = Row {
        kernel: kernel.name.to_owned(),
        scheme,
        threads: kernel.threads,
        reps,
        stores,
        hash_updates,
        hash_instr,
        checkpoints,
        wall_ns_best: best as u64,
        wall_ns_mean: mean,
        wall_ns_stddev: stddev,
        stores_per_sec: stores as f64 / (best / 1e9),
        ns_per_store: best / stores as f64,
        fold_share_est: (fold_ns / best).min(1.0),
        before_ns_per_store: None,
        speedup: None,
    };
    reporter.line(format!(
        "{:<16} {:<6} t{} {:>10} stores  {:>8.1} ns/store  {:>12.0} stores/s  fold~{:>4.1}%{}",
        row.kernel,
        scheme.name(),
        row.threads,
        row.stores,
        row.ns_per_store,
        row.stores_per_sec,
        row.fold_share_est * 100.0,
        match row.speedup {
            Some(s) => format!("  {s:.2}x"),
            None => String::new(),
        },
    ));
    row
}

// ---- tiny flat-JSON row reader for --baseline ---------------------------

/// Extracts `"key": <number>` from one flat JSON object line.
fn field_f64(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"key": "<string>"` from one flat JSON object line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    Some(&rest[..rest.find('"')?])
}

struct BaselineRow {
    kernel: String,
    scheme: String,
    ns_per_store: f64,
    stores_per_sec: f64,
}

fn read_baseline(path: &str) -> Vec<BaselineRow> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {path}: {e}");
        std::process::exit(2);
    });
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| {
            Some(BaselineRow {
                kernel: field_str(l, "kernel")?.to_owned(),
                scheme: field_str(l, "scheme")?.to_owned(),
                ns_per_store: field_f64(l, "ns_per_store")?,
                stores_per_sec: field_f64(l, "stores_per_sec")?,
            })
        })
        .collect()
}

// ---- JSON emission ------------------------------------------------------

fn row_json(r: &Row) -> String {
    use instantcheck_bench::json::write_field;
    let mut out = String::from("{");
    let mut first = true;
    write_field(&mut out, &mut first, "kernel", r.kernel.as_str());
    write_field(&mut out, &mut first, "scheme", r.scheme.name());
    write_field(&mut out, &mut first, "threads", &r.threads);
    write_field(&mut out, &mut first, "reps", &r.reps);
    write_field(&mut out, &mut first, "stores", &r.stores);
    write_field(&mut out, &mut first, "hash_updates", &r.hash_updates);
    write_field(&mut out, &mut first, "hash_instr", &r.hash_instr);
    write_field(&mut out, &mut first, "checkpoints", &r.checkpoints);
    write_field(&mut out, &mut first, "wall_ns_best", &r.wall_ns_best);
    write_field(&mut out, &mut first, "wall_ns_mean", &r.wall_ns_mean);
    write_field(&mut out, &mut first, "wall_ns_stddev", &r.wall_ns_stddev);
    write_field(&mut out, &mut first, "stores_per_sec", &r.stores_per_sec);
    write_field(&mut out, &mut first, "ns_per_store", &r.ns_per_store);
    write_field(&mut out, &mut first, "fold_share_est", &r.fold_share_est);
    write_field(
        &mut out,
        &mut first,
        "before_ns_per_store",
        &r.before_ns_per_store,
    );
    write_field(&mut out, &mut first, "speedup", &r.speedup);
    out.push('}');
    out
}

fn main() {
    let mut reps = 5usize;
    let mut scale = 1.0f64;
    let mut emit_baseline = false;
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--reps" => reps = args.next().and_then(|v| v.parse().ok()).unwrap_or(reps),
            "--scale" => scale = args.next().and_then(|v| v.parse().ok()).unwrap_or(scale),
            "--emit-baseline" => emit_baseline = true,
            "--baseline" => baseline = args.next(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }

    let reporter = Reporter::new("BENCH_hash");
    reporter.progress("calibrating fused-delta cost…");
    let delta_ns = calibrate_delta_ns();
    reporter.progress(&format!("one serial fused hash_delta ≈ {delta_ns:.2} ns"));

    let before = baseline.as_deref().map(read_baseline);
    let mut trace: Vec<Event> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    for kernel in kernels(scale) {
        for scheme in [Scheme::Native, Scheme::HwInc, Scheme::SwInc] {
            let mut row = run_row(&kernel, scheme, reps, delta_ns, &mut trace, &reporter);
            if let Some(before) = &before {
                if let Some(b) = before
                    .iter()
                    .find(|b| b.kernel == row.kernel && b.scheme == row.scheme.name())
                {
                    row.before_ns_per_store = Some(b.ns_per_store);
                    row.speedup = Some(row.stores_per_sec / b.stores_per_sec);
                }
            }
            rows.push(row);
        }
    }

    // The artifact: one document carrying the after rows, the embedded
    // before rows, and the calibration constant.
    let mut doc = String::from("{\"schema\": \"bench-hash/v1\", ");
    doc.push_str(&format!("\"delta_ns\": {delta_ns:?}, "));
    doc.push_str("\"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            doc.push_str(", ");
        }
        doc.push_str(&row_json(r));
    }
    doc.push_str("], \"before\": ");
    match (&before, &baseline) {
        (Some(b), Some(path)) => {
            let _ = path;
            doc.push('[');
            for (i, r) in b.iter().enumerate() {
                if i > 0 {
                    doc.push_str(", ");
                }
                doc.push_str(&format!(
                    "{{\"kernel\": \"{}\", \"scheme\": \"{}\", \"ns_per_store\": {:?}, \
                     \"stores_per_sec\": {:?}}}",
                    r.kernel, r.scheme, r.ns_per_store, r.stores_per_sec
                ));
            }
            doc.push(']');
        }
        _ => doc.push_str("null"),
    }
    doc.push('}');
    write_json("BENCH_hash", &RawJson(doc));

    if emit_baseline {
        let lines: String = rows.iter().map(|r| row_json(r) + "\n").collect();
        let path = std::path::Path::new("results").join("BENCH_hash.baseline.jsonl");
        if let Err(e) = std::fs::write(&path, lines) {
            eprintln!("could not write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
    write_trace("hashbench", &trace);
}

/// Pre-rendered JSON passed through `write_json` untouched.
struct RawJson(String);

impl instantcheck_bench::json::ToJson for RawJson {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}
