//! The run context every output records: what was measured, where and
//! how (commit, seed, sizes, threads, host).

use serde::Serialize;
use std::path::{Path, PathBuf};

/// Where and how a run happened.
#[derive(Debug, Clone, Serialize)]
pub struct Context {
    /// Commit of the checkout (`unknown` outside a git work tree).
    pub commit: String,
    /// The workload.
    pub workload: String,
    /// The workload seed.
    pub seed: u64,
    /// The measuring budget, seconds.
    pub seconds: f64,
    /// Smoke size (tests) or full size.
    pub smoke: bool,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub traced: bool,
    /// Worker threads of the data-parallel stages.
    pub rayon_threads: usize,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Host CPU model.
    pub cpu_model: String,
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The host CPU model from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit `HEAD` points at, read from the nearest `.git` directory
/// above the working directory; `unknown` when there is none.
pub fn commit() -> String {
    std::env::current_dir()
        .ok()
        .and_then(|dir| dir.ancestors().map(|d| d.join(".git")).find(|g| g.is_dir()))
        .and_then(|git| head_commit(&git))
        .unwrap_or_else(|| "unknown".to_string())
}

fn head_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    let loose: PathBuf = git.join(reference);
    if let Ok(hash) = std::fs::read_to_string(loose) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_commit_follows_loose_and_packed_refs() {
        let dir =
            std::env::temp_dir().join(format!("socrates-benchmark-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("packed-refs"), "# pack\nabc123 refs/heads/main\n").unwrap();
        assert_eq!(head_commit(&git).as_deref(), Some("abc123"));
        std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(head_commit(&git).as_deref(), Some("def456"));
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(head_commit(&git).as_deref(), Some("0123abcd"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn host_facts_are_readable() {
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }
}
