//! Emits `CODE_ID`, a hash of the workspace library sources
//! (`crates/*/src/**/*.rs`), the manifests and `Cargo.lock`, which keys the
//! persisted benchmark matrix by the code that computed it (`src/cache.rs`).
//! It reads only the source tree, in a fixed order, so it is offline and
//! deterministic and sees uncommitted edits. `benches/` is not hashed:
//! editing a table printer keeps the cache.

use dfs_linalg::rng::Fnv1a;
use std::path::{Path, PathBuf};

fn main() -> std::io::Result<()> {
    let env = |key| PathBuf::from(std::env::var_os(key).unwrap_or_default());
    let root = env("CARGO_MANIFEST_DIR").join("../..");
    let mut watched = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for krate in std::fs::read_dir(root.join("crates"))? {
        let krate = krate?.path();
        watched.extend([krate.join("Cargo.toml"), krate.join("src")]);
    }
    let mut files = Vec::new();
    for path in watched.iter().filter(|p| p.exists()) {
        // Cargo scans a watched directory recursively: a new file reruns us.
        println!("cargo:rerun-if-changed={}", path.display());
        collect(path, &mut files)?;
    }
    // Named relative to the root, so the id does not depend on where the
    // checkout lives.
    let mut named: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|f| {
            let rel = f.strip_prefix(&root).unwrap_or(&f);
            (rel.iter().map(|c| c.to_string_lossy()).collect::<Vec<_>>().join("/"), f)
        })
        .collect();
    named.sort();
    let mut h = Fnv1a::new();
    for (name, path) in &named {
        let bytes = std::fs::read(path)?;
        h.bytes(name.as_bytes());
        h.mix(bytes.len() as u64);
        h.bytes(&bytes);
    }
    let code_id = format!("const CODE_ID: u64 = {:#018x};\n", h.finish());
    std::fs::write(env("OUT_DIR").join("code_id.rs"), code_id)
}

/// Appends `path` if it is a file, else every `.rs` file under it.
fn collect(path: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if path.is_file() {
        out.push(path.to_path_buf());
        return Ok(());
    }
    for entry in std::fs::read_dir(path)? {
        let p = entry?.path();
        if p.is_dir() || p.extension().is_some_and(|e| e == "rs") {
            collect(&p, out)?;
        }
    }
    Ok(())
}
