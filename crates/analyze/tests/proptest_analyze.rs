//! Property-based tests for the analyze sketches: quantile monotonicity,
//! exact merge associativity (chunked merge == single pass), and bounds on the
//! distribution distances.

use proptest::prelude::*;
use psbench_analyze::prelude::*;
use psbench_swf::SwfRecordBuilder;

/// Strategy for a plausible observation value (covers several octaves plus
/// the underflow bin).
fn obs() -> impl Strategy<Value = i64> {
    prop_oneof![-10i64..10, 1i64..1000, 1000i64..2_000_000, Just(i64::MAX),]
}

fn hist_of(values: &[i64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.add(v);
    }
    h
}

proptest! {
    #[test]
    fn quantiles_are_monotone_in_q(values in prop::collection::vec(obs(), 1..300)) {
        let h = hist_of(&values);
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = h.quantile(q);
            prop_assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn moments_and_histogram_merges_are_associative(
        values in prop::collection::vec(obs(), 3..300),
        cut_a in 1usize..100,
        cut_b in 1usize..100,
    ) {
        // Cut the sample into three chunks at arbitrary points.
        let n = values.len();
        let i = cut_a % (n - 1);
        let j = i + 1 + (cut_b % (n - i - 1));
        let (xs, ys, zs) = (&values[..i], &values[i..j], &values[j..]);

        let single = hist_of(&values);
        let mut left = hist_of(xs);
        left.merge(&hist_of(ys));
        left.merge(&hist_of(zs));
        let mut right_tail = hist_of(ys);
        right_tail.merge(&hist_of(zs));
        let mut right = hist_of(xs);
        right.merge(&right_tail);
        prop_assert_eq!(&left, &single);
        prop_assert_eq!(&right, &single);

        let mom = |vs: &[i64]| {
            let mut m = Moments::new();
            for &v in vs { m.add(v); }
            m
        };
        let mut m_left = mom(xs);
        m_left.merge(&mom(ys));
        m_left.merge(&mom(zs));
        prop_assert_eq!(m_left, mom(&values));
    }

    #[test]
    fn streamed_chunked_profile_merges_bit_identical_to_sequential(
        gaps in prop::collection::vec(0i64..50_000, 2..120),
        cuts in prop::collection::vec(1usize..120, 0..6),
    ) {
        // A conforming log built from arbitrary gaps, streamed in arbitrary
        // contiguous chunks: merging the chunk profiles (the streaming
        // pipeline's block path) must equal both the sequential stream and
        // the materialized pass, bit for bit.
        let mut submit = 0i64;
        let mut log = psbench_swf::SwfLog::default();
        for (i, &g) in gaps.iter().enumerate() {
            submit += g;
            log.jobs.push(
                SwfRecordBuilder::new(i as u64 + 1, submit)
                    .run_time((g % 5000) + 1)
                    .allocated_procs((g % 64) as u32 + 1)
                    .requested_time((g % 5000) + 100)
                    .user_id((g % 7) as u32 + 1)
                    .build(),
            );
        }
        let seq = WorkloadProfile::of_log("p", &log);
        let streamed = WorkloadProfile::of_source(log.as_source("p")).unwrap();
        prop_assert_eq!(&streamed, &seq);
        // Cut the record list at arbitrary boundaries and merge chunk profiles.
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % log.jobs.len()).collect();
        bounds.push(0);
        bounds.push(log.jobs.len());
        bounds.sort_unstable();
        bounds.dedup();
        let mut merged = WorkloadProfile::named("p");
        for w in bounds.windows(2) {
            merged.merge(&WorkloadProfile::of_records("p", &log.jobs[w[0]..w[1]]));
        }
        prop_assert_eq!(merged, seq); // bit-identical, not approximate
    }

    #[test]
    fn chi_square_and_ad_are_bounded_symmetric_and_reflexive(
        xs in prop::collection::vec(obs(), 0..200),
        ys in prop::collection::vec(obs(), 0..200),
    ) {
        let (a, b) = (hist_of(&xs), hist_of(&ys));
        for d in [chi_square(&a, &b), ad_distance(&a, &b)] {
            prop_assert!((0.0..=1.0).contains(&d), "distance out of range: {d}");
        }
        prop_assert_eq!(chi_square(&a, &a), 0.0);
        prop_assert_eq!(ad_distance(&a, &a), 0.0);
        prop_assert_eq!(chi_square(&a, &b), chi_square(&b, &a));
        prop_assert_eq!(ad_distance(&a, &b), ad_distance(&b, &a));
    }

    #[test]
    fn ks_distance_is_bounded_and_reflexive(
        xs in prop::collection::vec(obs(), 0..200),
        ys in prop::collection::vec(obs(), 0..200),
    ) {
        let (a, b) = (hist_of(&xs), hist_of(&ys));
        let d = ks_distance(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d), "KS out of range: {d}");
        prop_assert_eq!(ks_distance(&a, &a), 0.0);
        prop_assert_eq!(ks_distance(&b, &b), 0.0);
        // symmetry
        prop_assert_eq!(d, ks_distance(&b, &a));
    }

    #[test]
    fn emd_is_nonnegative_and_zero_on_identical(
        xs in prop::collection::vec(obs(), 0..200),
        ys in prop::collection::vec(obs(), 0..200),
    ) {
        let (a, b) = (hist_of(&xs), hist_of(&ys));
        prop_assert!(emd(&a, &b) >= 0.0);
        prop_assert_eq!(emd(&a, &a), 0.0);
    }
}
