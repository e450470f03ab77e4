//! Shared provenance stamp for every `BENCH_*.json` artifact.
//!
//! The committed bench snapshots are compared across commits and hosts;
//! a number without its context (which commit, how many cores, what
//! `DFS_THREADS` pin) is noise. Every bench binary splices
//! [`stamp_json_fields`] into its JSON header so all artifacts carry the
//! same schema-versioned provenance block. `scripts/bench-snapshots.sh`
//! regenerates every snapshot at one commit, so their stamps agree.

/// Version of the shared `BENCH_*.json` header. Bump when the stamp
/// fields change shape; consumers diffing artifacts across commits key
/// on this.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// `git rev-parse --short HEAD`, or `"unknown"` when git or the repo is
/// unavailable (the artifacts must still be writable from a tarball).
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric()))
        .unwrap_or_else(|| "unknown".into())
}

/// Host logical CPU count.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The `DFS_THREADS` pin in effect, or `None` when the env var is unset
/// or unparseable (the run used the library default).
pub fn dfs_threads() -> Option<usize> {
    std::env::var("DFS_THREADS").ok().and_then(|v| v.parse().ok())
}

/// The shared stamp as a JSON object-body fragment (no surrounding
/// braces), indented to sit inside the artifact's top-level object:
///
/// ```text
/// "schema_version": 2,
///   "git_commit": "abc1234",
///   "host_cpus": 8,
///   "dfs_threads": null
/// ```
pub fn stamp_json_fields() -> String {
    let threads =
        dfs_threads().map_or_else(|| "null".to_string(), |t| t.to_string());
    format!(
        "\"schema_version\": {BENCH_SCHEMA_VERSION},\n  \"git_commit\": \"{}\",\n  \
         \"host_cpus\": {},\n  \"dfs_threads\": {threads}",
        git_commit(),
        host_cpus(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_fields_are_well_formed() {
        let stamp = stamp_json_fields();
        assert!(stamp.starts_with("\"schema_version\": 2,"));
        assert!(stamp.contains("\"git_commit\": \""));
        assert!(stamp.contains("\"host_cpus\": "));
        assert!(stamp.contains("\"dfs_threads\": "));
        // Splicing into an object must yield balanced, quoted JSON: no
        // stray braces, no unescaped quotes beyond the field syntax.
        let wrapped = format!("{{\n  {stamp}\n}}");
        assert_eq!(wrapped.matches('{').count(), 1);
        assert_eq!(wrapped.matches('}').count(), 1);
        assert_eq!(wrapped.matches('"').count() % 2, 0);
    }

    #[test]
    fn commit_is_short_hex_or_unknown() {
        let commit = git_commit();
        assert!(!commit.is_empty());
        assert!(commit.chars().all(|c| c.is_ascii_alphanumeric()));
    }

    #[test]
    fn host_cpus_positive() {
        assert!(host_cpus() >= 1);
    }
}
