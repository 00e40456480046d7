//! The cooperative executor: every simulated thread runs on the caller's
//! OS thread, and a failing thread ends only its own run.

use std::sync::{Arc, Mutex};

use tsim::{Program, ProgramBuilder, RunConfig, SimError, ValKind};

/// Four threads that each record the OS thread their body runs on, then
/// switch many times through a lock and two barriers.
fn recording_program(seen: &Arc<Mutex<Vec<std::thread::ThreadId>>>) -> Program {
    let mut b = ProgramBuilder::new(4);
    let g = b.global("g", ValKind::U64, 1);
    let lock = b.mutex();
    let bar = b.barrier();
    for _ in 0..4 {
        let seen = Arc::clone(seen);
        b.thread(move |ctx| async move {
            for _ in 0..2 {
                seen.lock().unwrap().push(std::thread::current().id());
                ctx.lock(lock).await;
                let v = ctx.load(g.at(0)).await;
                ctx.store(g.at(0), v + 1).await;
                ctx.unlock(lock).await;
                ctx.barrier(bar).await;
            }
        });
    }
    b.build()
}

#[test]
fn every_body_runs_on_the_callers_os_thread() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let out = recording_program(&seen).run(&RunConfig::random(5)).unwrap();
    let caller = std::thread::current().id();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 8, "each of the 4 bodies records twice");
    assert!(seen.iter().all(|&id| id == caller), "{seen:?}");
    let switches = out.decisions.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        switches >= 4,
        "the threads interleave ({switches} switches)"
    );
}

/// One thread panics after its first barrier; the others keep going.
fn panicking_program() -> Program {
    let mut b = ProgramBuilder::new(3);
    let bar = b.barrier();
    for tid in 0..3 {
        b.thread(move |ctx| async move {
            ctx.barrier(bar).await;
            assert_ne!(tid, 2, "thread {tid} gave up");
            ctx.barrier(bar).await;
        });
    }
    b.build()
}

#[test]
fn a_panicking_body_fails_only_its_own_run() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let before = recording_program(&seen).run(&RunConfig::random(9)).unwrap();

    let err = panicking_program().run(&RunConfig::random(9)).unwrap_err();
    match err {
        SimError::ThreadPanic { tid: 2, message } => {
            assert!(message.contains("thread 2 gave up"), "{message}");
        }
        other => panic!("unexpected error {other:?}"),
    }

    // The next run in the same process is unaffected.
    let after = recording_program(&seen).run(&RunConfig::random(9)).unwrap();
    assert_eq!(before.decisions, after.decisions);
    assert_eq!(before.instr, after.instr);
    assert_eq!(before.steps, after.steps);
}

/// Each thread takes its own lock, meets the other at a barrier, then
/// wants the other's lock: a deadlock under every schedule.
fn crossed_locks() -> Program {
    let mut b = ProgramBuilder::new(2);
    let locks = [b.mutex(), b.mutex()];
    let bar = b.barrier();
    for tid in 0..2 {
        b.thread(move |ctx| async move {
            ctx.lock(locks[tid]).await;
            ctx.barrier(bar).await;
            ctx.lock(locks[1 - tid]).await;
        });
    }
    b.build()
}

#[test]
fn deadlock_reports_every_blocked_thread() {
    for seed in 0..4 {
        let err = crossed_locks().run(&RunConfig::random(seed)).unwrap_err();
        assert_eq!(
            err,
            SimError::Deadlock {
                detail: "thread 0 waits on lock 1; thread 1 waits on lock 0".to_owned()
            },
            "seed {seed}"
        );
    }
}

#[test]
fn awaiting_a_foreign_future_fails_the_run() {
    let mut b = ProgramBuilder::new(2);
    b.thread(|_ctx| async move { std::future::pending::<()>().await });
    b.thread(|ctx| async move { ctx.work(1).await });
    let err = b.build().run(&RunConfig::random(0)).unwrap_err();
    match err {
        SimError::ThreadPanic { tid: 0, message } => {
            assert!(message.contains("not a ThreadCtx operation"), "{message}");
        }
        other => panic!("unexpected error {other:?}"),
    }
}
