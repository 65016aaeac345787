use super::*;

fn row(id: &str, fingerprint: &str, wall_ms: f64) -> Row {
    Row {
        id: id.into(),
        fingerprint: fingerprint.into(),
        wall_ms,
        info: Vec::new(),
    }
}

fn args(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

/// The baseline rows of the drift-rule tests; an identical quick run.
fn base_rows() -> Vec<Row> {
    vec![row("a", "01", 10.0), row("a_1m", "02", 10.0)]
}

/// Compare a quick run against [`base_rows`] taken at `base_scale`: the
/// errors and the warnings must name exactly the listed rows.
fn check(base_scale: &str, run: &[Row], errors: &[&str], warnings: &[&str]) {
    let (e, w) = compare(base_scale, &base_rows(), Scale::Quick, run);
    let names = |msgs: &[String], ids: &[&str]| {
        let named = |(m, id): (&String, &&str)| m.contains(&format!("`{id}`"));
        msgs.len() == ids.len() && msgs.iter().zip(ids).all(named)
    };
    assert!(names(&e, errors), "{base_scale} {run:?}: errors {e:?}");
    assert!(names(&w, warnings), "{base_scale} {run:?}: warnings {w:?}");
}

#[test]
fn identical_run_is_clean() {
    check("quick", &base_rows(), &[], &[]);
}

#[test]
fn changed_fingerprint_is_an_error() {
    let mut run = base_rows();
    run[1].fingerprint = "03".into();
    check("quick", &run, &["a_1m"], &[]);
}

#[test]
fn measured_row_missing_from_the_baseline_is_an_error() {
    let mut run = base_rows();
    run[1].id = "new".into();
    check("full", &run, &["new"], &[]);
}

#[test]
fn wall_growth_over_20_percent_only_warns() {
    check("full", &[row("a", "01", 12.5)], &[], &["a"]);
    check("full", &[row("a", "01", 11.9)], &[], &[]);
}

#[test]
fn unmeasured_baseline_row_warns_only_at_the_same_scale() {
    check("full", &[row("a", "01", 10.0)], &[], &[]);
    check("quick", &[row("a", "01", 10.0)], &[], &["a_1m"]);
}

#[test]
fn snapshot_round_trips_through_writer_and_reader() {
    let mut rows = vec![
        row("s16-j20000-least-pressure", "f5262f068de3c2c9", 20.894),
        row("E1", "e8c6e7a5bcd47f59", 4.333),
    ];
    rows[0].info = vec![("finished", "20000".into())];
    let title = "E1 — a \"quoted\" title, with a comma, \"id\": \"x\", \"wall_ms\": 9";
    rows[1].info = vec![("title", json_str(title)), ("rows", "3".into())];
    let text = render(&SUITES[2], Scale::Full, &rows);
    assert!(text.contains(&json_str(title)));
    for r in &mut rows {
        r.info.clear();
    }
    assert_eq!(read(&text), ("full".to_string(), rows));
}

#[test]
fn quick_rows_are_a_subset_of_full_rows() {
    // CI diffs quick runs against the full sim baseline, where a quick-only
    // row would be "missing from the baseline".
    for suite in &SUITES {
        let full = (suite.ids)(Scale::Full);
        for id in (suite.ids)(Scale::Quick) {
            assert!(full.contains(&id), "{}: quick-only row `{id}`", suite.name);
        }
    }
}

#[test]
fn bad_arguments_are_rejected_with_exit_2() {
    for bad in [
        "",
        "simm",
        "sim --scale ful",
        "sim --repeat x",
        "sweep --repeat zz",
        "meta --repeat 0",
        "meta --threads 1",
        "sim --out",
        "sim --scale full --baseline",
        "sweep --repeat",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "{bad}");
        assert_eq!(run(&args(bad)), 2, "{bad}");
    }
    let a = parse_args(&args("meta --scale full --repeat 3 --out o --baseline b")).unwrap();
    assert_eq!((a.suite.name, a.scale, a.repeat), ("meta", Scale::Full, 3));
    assert_eq!((a.out, a.baseline), (Some("o".into()), Some("b".into())));
}

#[test]
fn changed_fingerprint_in_a_baseline_file_exits_1() {
    let dir = std::env::temp_dir().join(format!("psbench-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sweep = |flag: &str, path: &std::path::Path| {
        run(&["sweep".into(), flag.into(), path.to_str().unwrap().into()])
    };
    let (base, drifted) = (dir.join("base.json"), dir.join("drifted.json"));
    assert_eq!(sweep("--out", &base), 0);
    let text = std::fs::read_to_string(&base).unwrap();
    let first = read(&text).1[0].fingerprint.clone();
    std::fs::write(&drifted, text.replacen(&first, "0123456789abcdef", 1)).unwrap();
    assert_eq!(sweep("--baseline", &base), 0);
    assert_eq!(sweep("--baseline", &drifted), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
