//! Pins the simulator's schedules to committed values. For every scaled
//! kernel plus the lock-order stress kernel, at scheduler seeds 1 and 2,
//! a run under the HwInc checking monitor must reproduce the step count,
//! the per-thread instruction counts, an FNV-64 digest of the scheduler
//! decision sequence and every checkpoint hash recorded in
//! `tests/golden/schedules.txt`.
//!
//! The file changes only when a schedule change is intended; regenerate
//! it with `GOLDEN_BLESS=1 cargo test --test golden_schedules`.

use std::fmt::Write as _;
use std::path::PathBuf;

use instantcheck::{CheckMonitor, IgnoreSpec, Scheme};
use tsim::{Program, RunConfig};

const SEEDS: [u64; 2] = [1, 2];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("schedules.txt")
}

/// FNV-1a over the little-endian bytes of each decision.
fn fnv64(decisions: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in decisions {
        for b in d.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One line per (kernel, seed).
fn line(name: &str, seed: u64, prog: Program) -> String {
    let cfg = RunConfig::random(seed).with_zero_fill_charged();
    let monitor = CheckMonitor::new(Scheme::HwInc, None, IgnoreSpec::new());
    let mut s = format!("{name} seed={seed}");
    match prog.run_with(&cfg, monitor) {
        Ok(out) => {
            let instr: Vec<String> = out.instr.iter().map(u64::to_string).collect();
            let hashes: Vec<String> = out
                .monitor
                .records()
                .iter()
                .map(|r| format!("{:016x}", r.hash.as_raw()))
                .collect();
            write!(
                s,
                " steps={} instr={} decisions={:016x} checkpoints={}",
                out.steps,
                instr.join(","),
                fnv64(&out.decisions),
                hashes.join(",")
            )
            .unwrap();
        }
        Err(e) => write!(s, " error={e}").unwrap(),
    }
    s
}

fn render() -> String {
    let mut out = String::new();
    for app in instantcheck_workloads::all_scaled() {
        for seed in SEEDS {
            out.push_str(&line(app.name, seed, app.build()));
            out.push('\n');
        }
    }
    for seed in SEEDS {
        let prog = instantcheck_workloads::stress::lock_order_hazard(32);
        out.push_str(&line("lock_order_hazard(32)", seed, prog));
        out.push('\n');
    }
    out
}

#[test]
fn schedules_match_the_committed_golden_file() {
    let fresh = render();
    let path = golden_path();
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &fresh).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("tests/golden/schedules.txt exists");
    for (i, (want, got)) in golden.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(want, got, "line {} of the golden file drifted", i + 1);
    }
    assert_eq!(
        golden.lines().count(),
        fresh.lines().count(),
        "golden line count"
    );
}
