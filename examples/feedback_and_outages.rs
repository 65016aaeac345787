//! Workload realism beyond rigid open-loop traces: feedback (user sessions with
//! think times, SWF fields 17/18) and outages (the standard outage format), the two
//! extensions Section 2.2 of the paper calls for.
//!
//! Run with: `cargo run --release --example feedback_and_outages`

use psbench::core::{run_experiment, Format, Scale};
use psbench::swf::write_string;
use psbench::workload::{
    dependency_chains, infer_dependencies, InferenceParams, Lublin99, SessionModel, WorkloadModel,
};

fn main() {
    // 1. Generate a closed-loop session workload: the dependencies are carried in
    //    the standard's preceding-job / think-time fields.
    let sessions = SessionModel::default().generate(1_500, 77);
    let dependent = sessions
        .summaries()
        .filter(|j| j.preceding_job.is_some())
        .count();
    let chains = dependency_chains(&sessions);
    println!(
        "session workload: {} jobs, {} with explicit dependencies, {} chains, longest chain {}",
        sessions.len(),
        dependent,
        chains.len(),
        chains.iter().map(|c| c.len()).max().unwrap_or(0)
    );
    println!(
        "example SWF line with feedback fields: {}",
        write_string(&sessions)
            .lines()
            .find(|l| !l.starts_with(';') && l.split_whitespace().nth(16) != Some("-1"))
            .unwrap_or("")
    );

    // 2. The paper's methodology for existing logs: infer dependencies from rapid
    //    same-user successions.
    let mut plain = Lublin99::default().generate(1_500, 78);
    let report = infer_dependencies(&mut plain, &InferenceParams::default());
    println!(
        "inferred feedback in a Lublin'99 trace: {} dependent jobs in {} chains",
        report.dependent_jobs, report.chains
    );

    // 3. What the feedback does to the measurements (experiment E4)...
    let e4 = run_experiment("E4", Scale::quick()).unwrap();
    println!("\n{}", e4.render(Format::Markdown));

    // 4. ...and what outages do (experiment E5).
    let e5 = run_experiment("E5", Scale::quick()).unwrap();
    println!("{}", e5.render(Format::Markdown));
}
