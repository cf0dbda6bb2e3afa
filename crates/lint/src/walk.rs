//! Workspace walking and path → rule-scope classification.
//!
//! Scope is decided entirely by where a file sits in the workspace, which
//! is the whole point of an in-repo linter: the invariants are *of this
//! repository* (which crates must be deterministic, where timing is a
//! feature rather than a bug, which files are cleared for unsafe),
//! so the mapping lives here as reviewed code, not in per-file pragmas.

use std::fs;
use std::path::{Path, PathBuf};

use crate::rules::FileClass;

/// Crates whose library code must be rerun-deterministic: everything the
/// bit-identical conformance goldens and the seeded scenario schedules run
/// through. D-rules apply to their `src/` (bin targets excluded).
pub const DETERMINISTIC_CRATES: &[&str] = &["fl", "baselines", "core", "cluster"];

/// Crates whose library code must not panic on hot paths (P001): `fl`
/// (which holds the codec), `core`, and `net`, whose coordinator faces
/// bytes and registrations from other processes.
pub const PANIC_FREE_CRATES: &[&str] = &["fl", "core", "net"];

/// The audited unsafe allowlist (U001): the single SIMD intrinsics module,
/// and two test binaries with a counting `#[global_allocator]` (a global
/// allocator is an `unsafe impl`): one proves `read_msg` allocates for
/// bytes received, the other pins the work counts of fixed operations.
/// Growing this list is a deliberate, reviewed act.
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/tensor/src/simd.rs",
    "crates/net/tests/read_msg_alloc.rs",
    "crates/bench/tests/work_counts.rs",
];

/// Timing carve-out for the networked-federation crate (D002/D003): the
/// per-round deadline module is `shiftex-net`'s *single* sanctioned
/// wall-clock site — a real socket deadline is a feature, not a
/// determinism bug, and everything it decides flows back into
/// deterministic accounting. Deliberately a file list, not a blanket
/// crate exemption: the rest of `crates/net/src/` (framing, coordinator,
/// worker) stays under the clock rules so stray `Instant::now` calls in
/// protocol logic are still caught.
pub const NET_TIMING_ALLOWLIST: &[&str] = &["crates/net/src/deadline.rs"];

/// Directory names never descended into: build output, VCS metadata, and
/// the lint crate's own violation fixtures (which exist to be dirty).
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Classifies a workspace-relative path (forward-slash normalised) into
/// the rule scopes that apply to it.
pub fn classify(rel: &str) -> FileClass {
    let parts: Vec<&str> = rel.split('/').collect();
    let mut class = FileClass {
        path: rel.to_string(),
        unsafe_allowed: UNSAFE_ALLOWLIST.contains(&rel),
        ..FileClass::default()
    };

    // Vendored dependency shims stand in for external crates: they are not
    // this codebase's determinism surface (criterion's whole job is wall
    // timing), but they are still covered by the unsafe audit.
    if parts.first() == Some(&"shims") {
        class.timing_exempt = true;
        return class;
    }

    // Whole-file test/bench/example scopes.
    let in_crate_tests = parts.first() == Some(&"crates")
        && matches!(parts.get(2), Some(&"tests") | Some(&"benches"));
    if parts.first() == Some(&"tests")
        || parts.first() == Some(&"examples")
        || parts.first() == Some(&"benches")
        || in_crate_tests
    {
        class.all_test = true;
        class.timing_exempt = true;
        return class;
    }

    if parts.first() == Some(&"crates") {
        let krate = parts.get(1).copied().unwrap_or("");
        let in_src = parts.get(2) == Some(&"src");
        let is_bin = in_src && (parts.get(3) == Some(&"bin") || parts.last() == Some(&"main.rs"));
        // Timing is the bench crate's purpose; bin targets own their I/O
        // and wall clocks (the ISSUE's "outside bench and bin targets").
        if krate == "bench" || is_bin {
            class.timing_exempt = true;
        }
        if in_src && !is_bin {
            class.deterministic = DETERMINISTIC_CRATES.contains(&krate);
            class.panic_scope = PANIC_FREE_CRATES.contains(&krate);
        }
        if NET_TIMING_ALLOWLIST.contains(&rel) {
            class.timing_exempt = true;
        }
    }

    class
}

/// Recursively collects every `.rs` file under `root` (sorted, so report
/// order and CI logs are stable), skipping `SKIP_DIRS` (VCS internals,
/// build output).
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Normalises `path` relative to `root` with forward slashes.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]` — the root the rule scopes are anchored to.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_crates_get_d_rules_in_lib_only() {
        assert!(classify("crates/fl/src/algo.rs").deterministic);
        assert!(classify("crates/core/src/aggregator.rs").deterministic);
        assert!(!classify("crates/detect/src/mmd.rs").deterministic);
        assert!(!classify("crates/experiments/src/bin/scenarios.rs").deterministic);
    }

    #[test]
    fn bins_benches_and_shims_are_timing_exempt() {
        assert!(classify("crates/experiments/src/bin/overheads.rs").timing_exempt);
        assert!(classify("crates/bench/src/bin/bench_runner.rs").timing_exempt);
        assert!(classify("crates/bench/src/lib.rs").timing_exempt);
        assert!(classify("shims/criterion/src/lib.rs").timing_exempt);
        assert!(!classify("crates/detect/src/lib.rs").timing_exempt);
    }

    #[test]
    fn net_timing_carve_out_is_exactly_the_deadline_module() {
        // The sanctioned wall-clock site is exempt…
        assert!(classify("crates/net/src/deadline.rs").timing_exempt);
        // …and nothing else in the net crate's library is: protocol logic
        // stays under the clock rules.
        assert!(!classify("crates/net/src/lib.rs").timing_exempt);
        assert!(!classify("crates/net/src/coordinator.rs").timing_exempt);
        assert!(!classify("crates/net/src/worker.rs").timing_exempt);
        assert!(!classify("crates/net/src/frame.rs").timing_exempt);
        // The carve-out is timing only — no determinism/panic scope change.
        assert!(!classify("crates/net/src/deadline.rs").deterministic);
        assert!(classify("crates/net/src/deadline.rs").panic_scope);
    }

    #[test]
    fn unsafe_allowlist_is_exactly_the_simd_module_and_the_allocator_probe() {
        assert!(classify("crates/tensor/src/simd.rs").unsafe_allowed);
        assert!(classify("crates/net/tests/read_msg_alloc.rs").unsafe_allowed);
        assert!(classify("crates/bench/tests/work_counts.rs").unsafe_allowed);
        assert!(!classify("crates/bench/tests/other.rs").unsafe_allowed);
        assert!(!classify("crates/net/tests/other.rs").unsafe_allowed);
        assert!(!classify("crates/net/src/frame.rs").unsafe_allowed);
        assert!(!classify("crates/tensor/src/vector.rs").unsafe_allowed);
        assert!(!classify("shims/rand/src/lib.rs").unsafe_allowed);
    }

    #[test]
    fn test_trees_are_whole_file_test_scope() {
        assert!(classify("tests/algorithm_conformance.rs").all_test);
        assert!(classify("examples/churny_federation.rs").all_test);
        assert!(classify("crates/fl/benches/fl_runtime.rs").all_test);
        assert!(!classify("crates/fl/src/algo.rs").all_test);
    }

    #[test]
    fn panic_scope_is_fl_core_and_net_lib() {
        assert!(classify("crates/fl/src/codec.rs").panic_scope);
        assert!(classify("crates/core/src/consolidate.rs").panic_scope);
        assert!(classify("crates/net/src/coordinator.rs").panic_scope);
        assert!(!classify("crates/net/tests/loopback.rs").panic_scope);
        assert!(!classify("crates/tensor/src/matrix.rs").panic_scope);
        assert!(!classify("crates/fl/src/bin/tool.rs").panic_scope);
    }
}
