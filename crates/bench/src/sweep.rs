//! The experiment suite: every `psbench sweep` table (E1..E10, including the
//! E10 model-fidelity scores). A row's fingerprint is FNV-1a over the title
//! and the CSV, so any changed cell changes it.

use crate::{best_of, json_str, Row, Scale};
use psbench_core::{experiment_ids, run_experiment, Format, Scale as ExperimentScale};
use psbench_store::fnv1a_64_hex;

pub(crate) fn ids(_: Scale) -> Vec<String> {
    experiment_ids().iter().map(|id| id.to_string()).collect()
}

pub(crate) fn measure(id: &str, scale: Scale, repeat: usize) -> Row {
    let scale = match scale {
        Scale::Quick => ExperimentScale::quick(),
        Scale::Full => ExperimentScale::full(),
    };
    let (table, wall_ms) = best_of(
        repeat,
        || (),
        |()| run_experiment(id, scale).expect("known experiment id"),
    );
    let rendered = format!("{}\n{}", table.title, table.render(Format::Csv));
    Row {
        id: id.to_string(),
        fingerprint: fnv1a_64_hex(rendered.as_bytes()),
        wall_ms,
        info: vec![
            ("title", json_str(&table.title)),
            ("rows", table.rows.len().to_string()),
        ],
    }
}
