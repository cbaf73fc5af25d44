//! The machine-written record of a run and the result line.
//!
//! Every record is stamped with the host's core count, the revision
//! (git commit when the checkout is a git repository, and always a
//! digest of the sources the benchmark was built from), the seed, the
//! thread counts and the digest of the workload's generated inputs.

use crate::bench::THREADS;
use crate::digest::Fnv;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The repository root the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// The git commit of the checkout, if it is a git repository.
pub fn git_revision(root: &Path) -> Option<String> {
    if !root.join(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// FNV-1a over the path and bytes of every file the benchmark is built
/// from, in path order: a revision stamp that needs no git.
pub fn source_digest(root: &Path) -> Result<u64, String> {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
        let entries =
            std::fs::read_dir(dir).map_err(|e| format!("cannot list '{}': {e}", dir.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                walk(&path, files)?;
            } else {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    for rel in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "perfbench/src",
    ] {
        let path = root.join(rel);
        if path.is_dir() {
            walk(&path, &mut files)?;
        } else if path.exists() {
            files.push(path);
        }
    }
    files.sort();
    let mut h = Fnv::default();
    for file in files {
        let bytes =
            std::fs::read(&file).map_err(|e| format!("cannot read '{}': {e}", file.display()))?;
        let rel = file.strip_prefix(root).unwrap_or(&file);
        h.text(&rel.to_string_lossy()).bytes(&bytes);
    }
    Ok(h.finish())
}

fn number(value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value}"))
    } else {
        Err(format!("non-finite value {value}"))
    }
}

/// The `"metrics"` object.
fn metrics_json(metrics: &[Metric]) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let value = number(m.value).map_err(|e| format!("metric {}: {e}", m.name))?;
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push('}');
    Ok(out)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)?
    ))
}

/// The stamps every record carries.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Workload name.
    pub workload: &'static str,
    /// Benchmark seed.
    pub seed: u64,
    /// Traced run or not.
    pub trace: bool,
    /// Window length, seconds.
    pub seconds: u64,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Digests the passes reproduced (or were held to), per instance.
    pub result_digests: Vec<Option<u64>>,
}

/// A full record: stamps, correctness, metrics and named raw samples.
pub fn record_json(
    stamp: &Stamp,
    result: &str,
    samples: &[(&str, &[f64])],
) -> Result<String, String> {
    let root = repo_root();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let revision = git_revision(&root).unwrap_or_else(|| "none".to_owned());
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"workload\": \"{}\",", stamp.workload);
    let _ = writeln!(out, "  \"seed\": {},", stamp.seed);
    let _ = writeln!(out, "  \"trace\": {},", u8::from(stamp.trace));
    let _ = writeln!(out, "  \"seconds\": {},", stamp.seconds);
    let _ = writeln!(out, "  \"nproc\": {nproc},");
    let _ = writeln!(out, "  \"threads\": {:?},", THREADS);
    let _ = writeln!(out, "  \"git_revision\": \"{revision}\",");
    let _ = writeln!(
        out,
        "  \"source_digest\": \"{:016x}\",",
        source_digest(&root)?
    );
    let _ = writeln!(out, "  \"input_digest\": \"{:016x}\",", stamp.input_digest);
    let digests: Vec<String> = stamp
        .result_digests
        .iter()
        .map(|d| d.map_or("null".to_owned(), |d| format!("\"{d:016x}\"")))
        .collect();
    let _ = writeln!(out, "  \"result_digests\": [{}],", digests.join(", "));
    let _ = writeln!(out, "  \"result\": {result},");
    out.push_str("  \"samples\": {");
    for (i, (name, values)) in samples.iter().enumerate() {
        let values: Result<Vec<String>, String> = values.iter().map(|&v| number(v)).collect();
        let _ = write!(
            out,
            "{}\n    \"{name}\": [{}]",
            if i == 0 { "" } else { "," },
            values?.join(", ")
        );
    }
    out.push_str("\n  }\n}\n");
    Ok(out)
}

/// Write a record under `out/records/` and return its path.
pub fn write_record(stamp: &Stamp, body: &str) -> Result<PathBuf, String> {
    let dir = crate::workload::out_dir().join("records");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create '{}': {e}", dir.display()))?;
    let millis = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = dir.join(format!(
        "{}-seed{}-trace{}-{millis}-{}.json",
        stamp.workload,
        stamp.seed,
        u8::from(stamp.trace),
        std::process::id()
    ));
    std::fs::write(&path, body).map_err(|e| format!("cannot write '{}': {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(
            true,
            1,
            0,
            &[Metric {
                name: "x",
                value: f64::NAN,
                unit: "s"
            }]
        )
        .is_err());
    }
}
