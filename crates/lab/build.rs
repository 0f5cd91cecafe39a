//! Stamps the build with the provenance of the source tree it was built
//! from, once, instead of asking `git` on every manifest write:
//!
//! * `ALE_GIT_STAMP` — the short sha of `HEAD`, suffixed `-dirty` when
//!   `git status --porcelain` lists anything;
//! * `ALE_GIT_DESCRIBE` — `git describe --always --dirty --tags`.
//!
//! Both read "unknown" when `git` or the repository is missing, e.g. in a
//! plain copy of the sources. `git` runs in this crate's directory, so the
//! stamp names the tree the binary came from, whatever directory it later
//! runs in. The script reruns when `HEAD`, the branch it names, the index
//! or the workspace's sources change, and only then.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The workspace's sources, relative to its root.
const SOURCES: [&str; 6] = [
    "Cargo.toml",
    "Cargo.lock",
    "src",
    "crates",
    "tests",
    "examples",
];

fn main() {
    let dir = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = dir
        .ancestors()
        .nth(2)
        .expect("the crate sits at crates/lab");
    for source in SOURCES {
        watch(&root.join(source));
    }
    if let Some(git_dir) = git(&dir, &["rev-parse", "--absolute-git-dir"]) {
        let git_dir = PathBuf::from(git_dir);
        watch(&git_dir.join("HEAD"));
        watch(&git_dir.join("index"));
        if let (Some(branch), Some(common)) = (
            git(&dir, &["symbolic-ref", "-q", "HEAD"]),
            git(&dir, &["rev-parse", "--git-common-dir"]),
        ) {
            let common = dir.join(common);
            watch(&common.join(branch));
            watch(&common.join("packed-refs"));
        }
    }
    println!("cargo:rustc-env=ALE_GIT_STAMP={}", stamp(&dir));
    let describe = git(&dir, &["describe", "--always", "--dirty", "--tags"]);
    println!(
        "cargo:rustc-env=ALE_GIT_DESCRIBE={}",
        describe.as_deref().unwrap_or("unknown")
    );
}

/// Reruns the script when `path` changes. A path that does not exist is
/// left out: cargo would rerun the script on every build for it.
fn watch(path: &Path) {
    if path.exists() {
        println!("cargo:rerun-if-changed={}", path.display());
    }
}

/// `git <args>` in `dir`, trimmed, or `None` if it fails or prints
/// nothing. `--no-optional-locks` keeps `status` from rewriting the index
/// the script watches.
fn git(dir: &Path, args: &[&str]) -> Option<String> {
    Command::new("git")
        .arg("--no-optional-locks")
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The short sha of `HEAD`, `-dirty` when the work tree has uncommitted
/// changes, untracked files included; "unknown" outside a repository.
fn stamp(dir: &Path) -> String {
    let Some(sha) = git(dir, &["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    match git(dir, &["status", "--porcelain"]) {
        Some(_) => format!("{sha}-dirty"),
        None => sha,
    }
}
