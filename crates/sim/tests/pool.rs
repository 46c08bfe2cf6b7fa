//! Lifecycle properties of the persistent worker pool as the engine
//! uses it: dropping a pool (or the simulation owning it) joins every
//! worker — no threads leak across runs; a panicking task poisons the
//! dispatch with a clear error instead of deadlocking the engine's
//! commit phase; and a thread budget of 1 degrades everything to the
//! serial path without ever spawning a thread.
//!
//! The thread-count checks read the process-wide count in /proc, which
//! sibling tests spawning pools of their own would disturb. Each such
//! test therefore re-executes this test binary to run alone in a child
//! process (see [`isolated`]).

use glr_sim::pool::Task;
use glr_sim::{
    Ctx, EngineKind, MessageInfo, NodeId, Protocol, SimConfig, Simulation, ThreadBudget,
    WorkerPool, Workload,
};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Idle;
impl Protocol for Idle {
    type Packet = ();
    fn on_message_created(&mut self, _: &mut Ctx<'_, ()>, _: MessageInfo) {}
    fn on_packet(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
}

/// Set in a child process to the name of the one test it runs.
const CHILD_ENV: &str = "GLR_POOL_TEST_CHILD";

/// Runs `body` in a child process that executes only the test `name`, so
/// no sibling test's threads share the process's thread count. Inside
/// that child, runs `body` directly.
fn isolated(name: &str, body: impl FnOnce()) {
    if std::env::var(CHILD_ENV).as_deref() == Ok(name) {
        body();
        return;
    }
    let exe = std::env::current_exe().expect("path of the running test binary");
    let out = std::process::Command::new(exe)
        .args([name, "--exact", "--test-threads=1", "--nocapture"])
        .env(CHILD_ENV, name)
        .output()
        .expect("re-execute the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{name} failed in its child process:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("1 passed"),
        "{name} did not run in its child process:\n{stdout}"
    );
}

/// Live thread count of this process (Linux; the CI and dev hosts).
/// Returns `None` where /proc is unavailable so the tests degrade to
/// join-based checks instead of failing spuriously.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Polls until the process thread count drops back to `baseline`
/// (joins are synchronous, but the *count* in /proc can lag a moment on
/// loaded hosts).
fn assert_threads_back_to(baseline: usize, context: &str) {
    for _ in 0..100 {
        match thread_count() {
            None => return, // no /proc — joins already asserted by Drop
            Some(n) if n <= baseline => return,
            Some(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    panic!(
        "{context}: thread count never returned to {baseline} (now {:?})",
        thread_count()
    );
}

fn dispatch_counts(pool: &WorkerPool, tasks: usize) -> usize {
    let counter = AtomicUsize::new(0);
    let jobs: Vec<Task<'_>> = (0..tasks)
        .map(|_| {
            let counter = &counter;
            Box::new(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            }) as Task<'_>
        })
        .collect();
    pool.run(jobs);
    counter.load(Ordering::Relaxed)
}

#[test]
fn pool_drop_joins_all_workers() {
    isolated(
        "pool_drop_joins_all_workers",
        pool_drop_joins_all_workers_body,
    );
}

fn pool_drop_joins_all_workers_body() {
    let baseline = thread_count().unwrap_or(0);
    let pool = WorkerPool::with_threads(4);
    assert_eq!(dispatch_counts(&pool, 32), 32);
    assert!(pool.is_started());
    if let (Some(now), Some(_)) = (thread_count(), Some(baseline)) {
        assert!(now >= baseline + 3, "3 workers must be live, saw {now}");
    }
    drop(pool);
    assert_threads_back_to(baseline, "after pool drop");
}

#[test]
fn simulations_leak_no_threads() {
    isolated(
        "simulations_leak_no_threads",
        simulations_leak_no_threads_body,
    );
}

fn simulations_leak_no_threads_body() {
    let baseline = thread_count().unwrap_or(0);
    // Forced-fanout parallel runs: every beacon dispatches to the pool.
    for seed in 0..3 {
        let cfg = SimConfig::paper(250.0, seed)
            .with_nodes(30)
            .with_duration(20.0)
            .with_engine(EngineKind::Parallel(4))
            .with_parallel_grain(1);
        let wl = Workload::paper_style(cfg.n_nodes, 5, 1000);
        let stats = Simulation::new(cfg, wl, |_, _| Idle).run();
        assert!(stats.control_tx > 0);
        assert_threads_back_to(baseline, "after simulation run");
    }
}

#[test]
fn panicking_task_errors_instead_of_deadlocking() {
    let pool = WorkerPool::with_threads(4);
    let survivors = AtomicUsize::new(0);
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut tasks: Vec<Task<'_>> = vec![Box::new(|| panic!("injected fault"))];
        for _ in 0..5 {
            let survivors = &survivors;
            tasks.push(Box::new(move || {
                survivors.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.run(tasks);
    }));
    let err = result.expect_err("the dispatcher must observe the poison");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("worker pool task panicked"),
        "poison must carry a clear error, got {msg:?}"
    );
    // The whole batch still completed before the error surfaced — the
    // commit phase's borrows were released, nothing deadlocked.
    assert_eq!(survivors.load(Ordering::Relaxed), 5);
    // And the pool remains usable afterwards.
    assert_eq!(dispatch_counts(&pool, 8), 8);
}

#[test]
fn budget_of_one_runs_serial_and_spawns_nothing() {
    isolated(
        "budget_of_one_runs_serial_and_spawns_nothing",
        budget_of_one_runs_serial_and_spawns_nothing_body,
    );
}

fn budget_of_one_runs_serial_and_spawns_nothing_body() {
    let baseline = thread_count().unwrap_or(0);
    let budget = ThreadBudget::total(1);
    let cfg = SimConfig::paper(250.0, 9)
        .with_nodes(30)
        .with_duration(30.0)
        .with_engine(EngineKind::Parallel(8))
        .with_parallel_grain(1)
        .with_thread_budget(budget);
    let wl = Workload::paper_style(cfg.n_nodes, 5, 1000);
    let serial_cfg = cfg
        .clone()
        .with_engine(EngineKind::Serial)
        .with_thread_budget(ThreadBudget::unlimited());
    let parallel = Simulation::new(cfg, wl.clone(), |_, _| Idle).run();
    let serial = Simulation::new(serial_cfg, wl, |_, _| Idle).run();
    assert_eq!(serial, parallel);
    if let Some(now) = thread_count() {
        assert!(
            now <= baseline,
            "budget of 1 must never spawn workers (baseline {baseline}, now {now})"
        );
    }
}
