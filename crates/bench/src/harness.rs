//! Shared plumbing for the throughput benches (`churn`, `codec`,
//! `replication`): one measurement record, workspace-rooted path
//! resolution for checked-in baseline files, and the hand-rolled JSON
//! snapshot format CI tracks across PRs.

use std::path::{Path, PathBuf};
use std::time::Duration;

/// One measured workload: a named event count over an elapsed wall-clock
/// window.
pub struct Measurement {
    /// Case name as it appears in the JSON snapshots (and the CI gate).
    pub name: String,
    /// Events completed within `elapsed`.
    pub events: u64,
    /// The measurement window.
    pub elapsed: Duration,
}

impl Measurement {
    /// Throughput in events per second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64()
    }
}

/// Resolves a path from the environment against the workspace root (cargo
/// runs benches with the *package* directory as cwd, but the baselines are
/// checked in at the repository root). `manifest_dir` is the calling
/// bench's `CARGO_MANIFEST_DIR`.
pub fn workspace_path(manifest_dir: &str, p: &str) -> PathBuf {
    let path = Path::new(p);
    if path.is_absolute() {
        path.to_path_buf()
    } else {
        Path::new(manifest_dir).join("../..").join(path)
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the measurements as the JSON snapshot format the CI gate and
/// the checked-in `BENCH_*.json` baselines use. `extra_fields` is spliced
/// verbatim after the label line (pass `""` for none; include the
/// trailing `,\n  ` yourself when non-empty).
pub fn results_json(
    bench: &str,
    label: &str,
    extra_fields: &str,
    measurements: &[Measurement],
) -> String {
    let mut entries = String::new();
    for (i, m) in measurements.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\"name\": \"{}\", \"events\": {}, \"seconds\": {:.4}, \
             \"events_per_sec\": {:.1}}}",
            json_escape(&m.name),
            m.events,
            m.elapsed.as_secs_f64(),
            m.events_per_sec()
        ));
    }
    format!(
        "{{\n  \"bench\": \"{}\",\n  \"label\": \"{}\",\n  {}\"results\": [\n{}\n  ]\n}}\n",
        json_escape(bench),
        json_escape(label),
        extra_fields,
        entries
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_snapshot_round_trips_the_expected_shape() {
        let ms = vec![
            Measurement { name: "a/b-1".into(), events: 100, elapsed: Duration::from_secs(2) },
            Measurement { name: "a/b-2".into(), events: 30, elapsed: Duration::from_secs(1) },
        ];
        let json = results_json("demo", "label \"quoted\"", "\"extra\": 1,\n  ", &ms);
        assert!(json.contains("\"bench\": \"demo\""));
        assert!(json.contains("\\\"quoted\\\""), "labels are escaped");
        assert!(json.contains("\"extra\": 1"));
        assert!(json.contains("\"name\": \"a/b-1\", \"events\": 100"));
        assert!(json.contains("\"events_per_sec\": 50.0"));
    }

    #[test]
    fn workspace_path_roots_relative_paths() {
        assert_eq!(workspace_path("/x/crates/bench", "/abs/p"), PathBuf::from("/abs/p"));
        assert_eq!(
            workspace_path("/x/crates/bench", "B.json"),
            PathBuf::from("/x/crates/bench/../../B.json")
        );
    }
}
