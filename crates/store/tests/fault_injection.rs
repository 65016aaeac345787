//! The fault-injection harness turned on itself: journal appends and store
//! publishes under seeded write faults must fail loudly, roll back cleanly,
//! and leave every durable structure in a state recovery accepts.
//!
//! The fault plan is process-global, and cargo runs `#[test]`s in this file
//! on parallel threads — every test takes [`plan_guard`] first, which both
//! serializes them and clears the plan when the test ends (or panics), so a
//! leaked plan can never tear the writes of an unrelated test.

use std::sync::{Mutex, MutexGuard, OnceLock};

use psbench_sched::by_name;
use psbench_sim::{SimConfig, SimJob, Simulation, SimulationResult};
use psbench_store::fault::{self, is_injected, FaultPlan};
use psbench_store::{ArtifactKind, ArtifactStore, FsyncPolicy, Journal, SweepLedger};

/// Serialize fault tests and guarantee the plan is cleared afterwards.
struct PlanGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        fault::install(None);
    }
}

fn plan_guard(plan: Option<FaultPlan>) -> PlanGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    // A previous test may have panicked while holding the lock; the plan
    // itself is what must stay consistent, so a poisoned mutex is fine.
    let _lock = match lock.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    fault::install(plan);
    PlanGuard { _lock }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("psbench-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn plan(seed: u64, err: u32, short: u32, kill: u32) -> FaultPlan {
    FaultPlan {
        seed,
        io_error: err,
        short_write: short,
        kill,
    }
}

/// A small deterministic result to publish through the store's write path.
fn sample_result(salt: u64) -> SimulationResult {
    use psbench_swf::{SwfLog, SwfRecordBuilder};
    let mut log = SwfLog::default();
    log.header.max_nodes = Some(32);
    for i in 0..8u64 {
        log.jobs.push(
            SwfRecordBuilder::new(i + 1, (i as i64) * 50 + (salt % 17) as i64)
                .run_time(60 + (i as i64 * 13 + salt as i64) % 300)
                .allocated_procs(1 + ((i + salt) % 16) as u32)
                .requested_procs(1 + ((i + salt) % 16) as u32)
                .build(),
        );
    }
    let jobs = SimJob::from_log(&log);
    let mut policy = by_name("fcfs", 32).unwrap();
    Simulation::new(SimConfig::new(32), jobs).run(policy.as_mut())
}

#[test]
fn transient_errors_roll_appends_back_and_the_journal_stays_usable() {
    let _guard = plan_guard(None);
    let dir = temp_dir("transient");
    let path = dir.join("t.journal");
    let journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
    journal.append_line("one").unwrap();
    let before = std::fs::read(&path).unwrap();

    // Every write fails, nothing lands.
    fault::install(Some(plan(1, 1000, 0, 0)));
    let err = journal.append_line("two").unwrap_err();
    assert!(is_injected(&err), "{err}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "failed append left bytes"
    );

    // Clear the plan: the same journal accepts the retry.
    fault::install(None);
    journal.append_line("two").unwrap();
    drop(journal);
    let (_, lines) = Journal::recover(&path, FsyncPolicy::Always, |l| Some(l.to_string())).unwrap();
    assert_eq!(lines, ["one", "two"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_writes_and_kill_points_never_leave_torn_bytes_behind() {
    let _guard = plan_guard(None);
    let dir = temp_dir("torn");
    let path = dir.join("t.journal");
    let journal = Journal::open(&path, FsyncPolicy::Always).unwrap();
    journal.append_line("durable").unwrap();
    let before = std::fs::read(&path).unwrap();

    // A short write tears the append mid-buffer; the journal rolls the file
    // back so the tear is invisible.
    fault::install(Some(plan(3, 0, 1000, 0)));
    let err = journal.append_line("torn-by-short-write").unwrap_err();
    assert!(is_injected(&err), "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), before);

    // A kill-point tears one write and deadens every later one — the
    // simulated process is gone from the filesystem's point of view.
    fault::install(Some(plan(4, 0, 0, 1000)));
    let err = journal.append_line("torn-by-kill").unwrap_err();
    assert!(is_injected(&err), "{err}");
    let err = journal.append_line("after-death").unwrap_err();
    assert!(
        is_injected(&err),
        "writes after a kill-point must fail: {err}"
    );
    assert_eq!(std::fs::read(&path).unwrap(), before);

    // "Reboot": clear the plan, recover, and the journal carries on.
    fault::install(None);
    drop(journal);
    let (journal, lines) =
        Journal::recover(&path, FsyncPolicy::Always, |l| Some(l.to_string())).unwrap();
    assert_eq!(lines, ["durable"]);
    journal.append_line("after-reboot").unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_same_seed_replays_the_same_fault_sequence() {
    let _guard = plan_guard(None);
    let dir = temp_dir("replay");
    let the_plan = plan(42, 150, 100, 0);

    let run = |path: &std::path::Path| -> (Vec<Option<String>>, Vec<u8>) {
        fault::install(Some(the_plan));
        let journal = Journal::open(path, FsyncPolicy::Always).unwrap();
        let outcomes = (0..40)
            .map(|i| {
                journal.append_line(&format!("record {i}")).err().map(|e| {
                    assert!(is_injected(&e), "{e}");
                    e.to_string()
                })
            })
            .collect();
        fault::install(None);
        (outcomes, std::fs::read(path).unwrap())
    };

    let (first, first_bytes) = run(&dir.join("a.journal"));
    let (second, second_bytes) = run(&dir.join("b.journal"));
    assert!(
        first.iter().any(|o| o.is_some()) && first.iter().any(|o| o.is_none()),
        "plan should mix failures and successes: {first:?}"
    );
    assert_eq!(
        first, second,
        "fault sequence must be a pure function of the seed"
    );
    assert_eq!(first_bytes, second_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_publishes_under_faults_either_land_whole_or_not_at_all() {
    let _guard = plan_guard(None);
    let dir = temp_dir("store");
    let store = ArtifactStore::open(&dir).unwrap();
    let result = sample_result(0);

    // Hammer publishes under a mixed fault plan; each either succeeds fully
    // or fails loudly with an injected error.
    fault::install(Some(plan(7, 120, 120, 0)));
    let mut failed = 0usize;
    let mut landed = 0usize;
    for key in 0..60u128 {
        match store.put_result(key, &result) {
            Ok(()) => landed += 1,
            Err(e) => {
                assert!(is_injected(&e), "{e}");
                failed += 1;
            }
        }
    }
    fault::install(None);
    assert!(failed > 0, "fault plan never fired");
    assert!(landed > 0, "fault plan never let a publish through");

    // Whatever the faults did, the store verifies clean: no torn artifact is
    // ever visible under its content address.
    let report = store.verify().unwrap();
    assert!(report.problems.is_empty(), "{:?}", report.problems);
    assert_eq!(report.ok, landed);
    for key in 0..60u128 {
        if store.has(ArtifactKind::Result, key) {
            let got = store.get_result(key).unwrap().expect("present result");
            assert_eq!(got, result, "artifact {key} decoded differently");
        }
    }

    // Failed publishes retry cleanly once the faults stop.
    for key in 0..60u128 {
        if !store.has(ArtifactKind::Result, key) {
            store.put_result(key, &result).unwrap();
        }
    }
    assert_eq!(store.verify().unwrap().ok, 60);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ledgers_survive_faulted_records_and_replay_only_whole_entries() {
    let _guard = plan_guard(None);
    let dir = temp_dir("ledger");
    let store = ArtifactStore::open(&dir).unwrap();
    let (ledger, _) = SweepLedger::open(&store, 0xfeed_beef).unwrap();

    fault::install(Some(plan(11, 200, 200, 0)));
    let mut recorded = Vec::new();
    for cell in 0..40u128 {
        match ledger.record(cell, cell as u64 * 3 + 1) {
            Ok(()) => recorded.push(cell),
            Err(e) => assert!(is_injected(&e), "{e}"),
        }
    }
    fault::install(None);
    assert!(!recorded.is_empty(), "no record survived the plan");
    assert!(recorded.len() < 40, "fault plan never fired");

    // Reopening replays exactly the successfully recorded cells.
    drop(ledger);
    let (_, replayed) = SweepLedger::open(&store, 0xfeed_beef).unwrap();
    assert_eq!(
        replayed.keys().copied().collect::<Vec<_>>(),
        recorded,
        "replay must hold exactly the appends that reported success"
    );
    for (&cell, &fp) in &replayed {
        assert_eq!(fp, cell as u64 * 3 + 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
