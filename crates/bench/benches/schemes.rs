//! Benchmarks of whole checking campaigns: the wall-clock cost of
//! simulating one run of a representative workload under each
//! InstantCheck scheme, and of miniature campaigns. (The paper's
//! Figure 6 is about *simulated instruction* overhead — regenerated by
//! the `fig6` binary; these benches measure the reproduction's own
//! speed.)

use instantcheck::{CheckMonitor, Checker, CheckerConfig, IgnoreSpec, Scheme};
use instantcheck_bench::timing::bench;
use tsim::RunConfig;

fn main() {
    for scheme in [Scheme::Native, Scheme::HwInc, Scheme::SwInc, Scheme::SwTr] {
        let app = instantcheck_workloads::by_name("ocean", true).unwrap();
        bench(&format!("single_run/{scheme:?}"), || {
            let monitor = CheckMonitor::new(scheme, None, IgnoreSpec::new());
            app.build()
                .run_with(&RunConfig::random(1), monitor)
                .unwrap()
        });
    }

    for name in ["volrend", "radix", "pbzip2"] {
        let app = instantcheck_workloads::by_name(name, true).unwrap();
        bench(&format!("campaign/{name}"), || {
            let build = std::sync::Arc::clone(&app.build);
            Checker::new(CheckerConfig::new(Scheme::HwInc).with_runs(5))
                .expect("valid config")
                .check(move || build())
                .unwrap()
        });
    }

    // The simulator's own serialization cost: barriers per second.
    bench("simulator/barrier_round_trips", || {
        let mut pb = tsim::ProgramBuilder::new(4);
        let bar = pb.barrier();
        for _ in 0..4 {
            pb.thread(move |ctx| async move {
                for _ in 0..50 {
                    ctx.barrier(bar).await;
                }
            });
        }
        pb.build().run(&RunConfig::random(1)).unwrap()
    });
}
