//! Property tests of the codec's exactness invariant: for any profile the
//! analyzer can produce and any result the simulator can produce,
//! `decode(encode(x))` returns a value `==` to `x` — bit for bit, including
//! the lazily-allocated joint histogram's never-allocated state — and the
//! result fingerprint is a pure function of the encoding. This is the
//! property that makes cached artifacts indistinguishable from freshly
//! computed ones, and resumed sweep reports byte-identical.

use proptest::prelude::*;
use psbench_analyze::WorkloadProfile;
use psbench_sched::by_name;
use psbench_sim::{SimConfig, SimJob, Simulation};
use psbench_store::{
    decode_profile, decode_result, encode_profile, encode_result, fnv1a_64, result_fingerprint,
};
use psbench_swf::{CompletionStatus, SwfLog, SwfRecord, SwfRecordBuilder};

/// Strategy for one raw record spec: interarrival gap, runtime (0 = unknown,
/// which keeps the joint runtime×size histogram unallocated for that record),
/// procs, requested time, user id (group id is derived), and completion
/// status selector.
fn record_spec() -> impl Strategy<Value = (i64, i64, u32, i64, u32, u8)> {
    (
        0i64..40_000,
        0i64..6_000,
        1u32..64,
        0i64..8_000,
        1u32..9,
        0u8..4,
    )
}

/// Materialize record specs as a conforming log (ids 1..n, submits ascending).
fn build_log(specs: &[(i64, i64, u32, i64, u32, u8)]) -> SwfLog {
    let mut log = SwfLog::default();
    log.header.max_nodes = Some(64);
    let mut submit = 0i64;
    for (i, &(gap, run, procs, req, user, status)) in specs.iter().enumerate() {
        submit += gap;
        let group = user % 3 + 1;
        let mut b = SwfRecordBuilder::new(i as u64 + 1, submit)
            .allocated_procs(procs)
            .requested_procs(procs)
            .user_id(user)
            .group_id(group)
            .status(match status {
                0 => CompletionStatus::Completed,
                1 => CompletionStatus::Failed,
                2 => CompletionStatus::Cancelled,
                _ => CompletionStatus::Completed,
            });
        if run > 0 {
            b = b.run_time(run);
        }
        if req > 0 {
            b = b.requested_time(req);
        }
        log.jobs.push(b.build());
    }
    log
}

fn roundtrip_profile(profile: &WorkloadProfile) {
    let encoded = encode_profile(profile);
    let decoded = decode_profile(&encoded).expect("encoded profile decodes");
    assert_eq!(&decoded, profile, "decode(encode(p)) != p");
    // Encoding is deterministic: re-encoding the decoded value is identical.
    assert_eq!(encode_profile(&decoded), encoded);
}

proptest! {
    #[test]
    fn any_profile_roundtrips_bit_identical(
        specs in prop::collection::vec(record_spec(), 0..160),
    ) {
        let log = build_log(&specs);
        let profile = WorkloadProfile::of_records("prop", &log.jobs);
        roundtrip_profile(&profile);
    }

    #[test]
    fn unallocated_joint_histogram_survives_the_roundtrip(
        specs in prop::collection::vec(record_spec(), 0..40),
    ) {
        // Strip every runtime: the runtime×size joint histogram is lazily
        // allocated and must come back *unallocated*, not as an allocated
        // all-zero table (those compare unequal).
        let mut log = build_log(&specs);
        for j in &mut log.jobs {
            j.run_time = None;
        }
        let profile = WorkloadProfile::of_records("lazy", &log.jobs);
        roundtrip_profile(&profile);
    }

    #[test]
    fn any_simulation_result_roundtrips_bit_identical(
        specs in prop::collection::vec(record_spec(), 1..60),
        sched_ix in 0usize..6,
    ) {
        let mut log = build_log(&specs);
        // The simulator needs runtimes; make unknown ones explicit zeros.
        for j in &mut log.jobs {
            if j.run_time.is_none() {
                j.run_time = Some(0);
            }
        }
        let name = ["fcfs", "sjf", "greedy-fcfs", "easy", "conservative", "gang"][sched_ix];
        let mut scheduler = by_name(name, 64).expect("registry scheduler");
        let jobs: Vec<SimJob> = SimJob::from_log(&log);
        let result = Simulation::new(SimConfig::new(64), jobs).run(scheduler.as_mut());

        let encoded = encode_result(&result);
        let decoded = decode_result(&encoded).expect("encoded result decodes");
        prop_assert_eq!(&decoded, &result, "decode(encode(r)) != r");
        prop_assert_eq!(encode_result(&decoded), encoded.clone());
        // The fingerprint sweeps journal is a pure function of the value.
        prop_assert_eq!(result_fingerprint(&decoded), result_fingerprint(&result));
        // The streamed fingerprint hashes exactly the bytes the encoder emits.
        prop_assert_eq!(result_fingerprint(&result), fnv1a_64(encoded.as_bytes()));
    }
}

/// Records with every optional field unknown still roundtrip (all the `-`
/// sentinels in the encoding).
#[test]
fn minimal_records_roundtrip() {
    let rec: SwfRecord = SwfRecordBuilder::new(1, 0).build();
    let profile = WorkloadProfile::of_records("minimal", &[rec]);
    roundtrip_profile(&profile);
}
