//! Cross-crate contracts checked from the public API.
//!
//! * **Exact attribution.** A traced serve run decomposes every request's
//!   sojourn into seven components (queueing, cold start, GIL block,
//!   interaction, execution, retry, forwarding) that sum to it exactly.
//! * **Ring corruption detection.** The shm ring frames every payload
//!   with a CRC32 that the consumer recomputes over the (possibly
//!   wrap-split) payload before handing it out. The detector rejects
//!   every single-bit and every short burst flip, and a frame split at any
//!   point validates as the contiguous payload does, so wrapped frames
//!   are never misreported as torn. Injecting raw corruption needs the
//!   ring's private buffer; that half stays in the ring's unit tests.
//! * **Overhead gates measure tracing, not noise.** The tracing-overhead
//!   estimate fails a real 20 % cost and passes a 5 % one under ±5 %
//!   timing noise, and one lucky untraced sample barely moves it.
//! * **No process state outside `chiron-obs`.** No library `static` holds
//!   interior mutability and no `thread_local!` exists, bar an explicit
//!   allowlist; state belongs to the value that uses it.
//! * **No test-only public API.** Every `pub fn` and `pub const` in
//!   `crates/*/src` is named by some non-test source, bar an explicit
//!   allowlist of deliberate test hooks.
//! * **No unused dependencies.** Every `[dependencies]` and
//!   `[dev-dependencies]` entry of a `crates/*/Cargo.toml` is named in
//!   that crate's `src/`, bar the
//!   entries annotated as kept only for perfbench's committed lockfile,
//!   which must be named nowhere there.
//! * **No unlisted unit tests.** The `#[test]` functions under
//!   `crates/*/src` are exactly those `tests/unit_tests.txt` keeps, each
//!   with its reason; everything else tier-1 checks itself.

use chiron::deploy::NodeId;
use chiron::model::{apps, SimTime};
use chiron::{Chiron, FaultPlan, PgpMode, ServeConfig, Workload};
use chiron_bench::timing::{overhead_frac, OVERHEAD_CEILING};
use chiron_runtime::rt::ring::crc32_pair;
use chiron_runtime::{crc32, ring, RingError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

#[test]
fn traced_serve_run_attributes_every_request_exactly() {
    let chiron = Chiron::default();
    let wf = apps::finra(12);
    let deployment = chiron.deploy(&wf, None, PgpMode::NativeThread);
    let workload = Workload::steady(25.0, 300);
    // A node kill mid-run puts retry time on some requests.
    let faults = FaultPlan::none().kill_at(SimTime::from_millis_f64(5_000.0), NodeId(0));
    let (report, attrib) = chiron
        .attribution_report(
            &wf,
            &deployment,
            ServeConfig::paper_testbed(),
            faults,
            &workload,
            3,
        )
        .expect("serve run completes");
    assert_eq!(report.completed, 300);
    assert_eq!(attrib.requests.len() as u64, report.completed);
    assert_eq!(attrib.incomplete, 0);
    for r in &attrib.requests {
        assert_eq!(r.components.len(), 7);
        assert_eq!(
            r.components.iter().sum::<u64>(),
            r.sojourn_ns,
            "request {} does not sum to its sojourn",
            r.request
        );
    }
    assert!(attrib.sums_exact());
    assert!(
        attrib.requests.iter().any(|r| r.components[5] > 0),
        "the node kill must leave retry time on some request"
    );
}

#[test]
fn ring_crc_rejects_bit_flips_and_bursts() {
    let payload: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
    let good = crc32(&payload);
    for bit in 0..payload.len() * 8 {
        let mut torn = payload.clone();
        torn[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(
            crc32(&torn),
            good,
            "single-bit flip at bit {bit} undetected"
        );
    }
    // CRC32 catches every burst of up to 32 bits.
    for start in 0..payload.len() - 4 {
        for burst in [0x0000_0101u32, 0x8000_0001, 0xffff_ffff] {
            let mut torn = payload.clone();
            for (k, b) in burst.to_le_bytes().iter().enumerate() {
                torn[start + k] ^= b;
            }
            assert_ne!(crc32(&torn), good, "burst at byte {start} undetected");
        }
    }
    // The consumer validates a wrapped frame as its two slices: every
    // split point must agree with the contiguous payload.
    for split in 0..=payload.len() {
        let (a, b) = payload.split_at(split);
        assert_eq!(crc32_pair(a, b), good, "split at {split}");
    }
}

#[test]
fn ring_delivers_wrapped_frames_intact() {
    let (mut tx, mut rx) = ring(256);
    let mut expected = std::collections::VecDeque::new();
    for i in 0..2_000u32 {
        let len = (i * 7 % 120) as usize;
        let payload: Vec<u8> = (0..len).map(|j| (i as u8).wrapping_add(j as u8)).collect();
        loop {
            match tx.try_push(&payload) {
                Ok(()) => break,
                Err(RingError::Full) => {
                    let want: Vec<u8> = expected.pop_front().expect("a frame is queued");
                    assert_eq!(rx.pop(), Ok(Some(want)));
                }
                Err(e) => panic!("frame {i}: {e}"),
            }
        }
        expected.push_back(payload);
    }
    while let Some(want) = expected.pop_front() {
        assert_eq!(rx.pop(), Ok(Some(want)));
    }
    assert_eq!(rx.pop(), Ok(None));
}

/// A release run's 24 rounds of a 12 ms pass, untraced and traced, the
/// traced pass costing `cost` more; every sample carries its own
/// uniform ±5 % noise.
fn noisy_rounds(seed: u64, cost: f64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sample = |ms: f64| ms * rng.random_range(0.95..1.05);
    (0..24)
        .map(|_| (sample(12.0), sample(12.0 * (1.0 + cost))))
        .unzip()
}

#[test]
fn overhead_estimate_sees_the_cost_not_the_noise() {
    for seed in 0..10 {
        let (untraced, traced) = noisy_rounds(seed, 0.20);
        let heavy = overhead_frac(&untraced, &traced);
        assert!(heavy > OVERHEAD_CEILING, "seed {seed}: 20% read {heavy}");

        let (mut untraced, traced) = noisy_rounds(seed, 0.05);
        let clean = overhead_frac(&untraced, &traced);
        assert!(clean <= OVERHEAD_CEILING, "seed {seed}: 5% read {clean}");
        // One untraced sample 30 % fast — a lucky burst that a per-mode
        // minimum would read as a 40-point overhead.
        untraced[5] *= 0.7;
        // The median of the ratios moves by at most one order-statistic
        // step: under 1 % of the estimated traced/untraced time ratio.
        let lucky = overhead_frac(&untraced, &traced);
        assert!(
            ((1.0 + lucky) / (1.0 + clean) - 1.0).abs() < 0.01,
            "seed {seed}: one lucky sample moved {clean} to {lucky}"
        );
    }
}

/// The process state `no_process_state_outside_obs` tolerates, as
/// `(file, static)`: the DES's per-thread default scratch arena.
const PROCESS_STATE_ALLOWLIST: [(&str, &str); 1] = [("crates/runtime/src/platform.rs", "SCRATCH")];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file under `crates/*/src`.
fn crate_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files
}

/// Every `static` outside `#[cfg(test)]` in `crates/*/src` (bar
/// `crates/obs`) whose type names an atomic, lock, lazy or cell type, and
/// every `thread_local!` static, as `(file, name)`. The `Static*` metric
/// sites pass by type.
fn process_state_sites(root: &Path) -> Vec<(String, String)> {
    const STATEFUL: [&str; 6] = ["Mutex", "RwLock", "OnceLock", "LazyLock", "Cell", "RefCell"];
    let obs = root.join("crates/obs");
    let mut sites = Vec::new();
    for file in crate_sources(root)
        .into_iter()
        .filter(|f| !f.starts_with(&obs))
    {
        let rel = file.strip_prefix(root).unwrap().display().to_string();
        let text = std::fs::read_to_string(&file).expect("readable source file");
        // Brace depth inside a `thread_local!` block, if in one.
        let mut thread_local: Option<i32> = None;
        for line in non_test_lines(&text).into_iter().map(str::trim) {
            if line.starts_with("//") {
                continue;
            }
            let mut decl = line;
            if let Some(rest) = line.strip_prefix("thread_local!") {
                thread_local = Some(0);
                decl = rest.trim_start_matches([' ', '{', '(']);
            }
            let decl = decl
                .trim_start_matches("pub(crate) ")
                .trim_start_matches("pub ");
            if let Some((name, ty)) = decl.strip_prefix("static ").and_then(|d| d.split_once(':')) {
                let ty = ty.split('=').next().unwrap_or_default();
                let stateful = ty
                    .split(|c: char| !c.is_alphanumeric() && c != '_')
                    .any(|word| word.starts_with("Atomic") || STATEFUL.contains(&word));
                if stateful || thread_local.is_some() {
                    sites.push((rel.clone(), name.trim_start_matches("mut ").to_string()));
                }
            }
            if let Some(depth) = thread_local.as_mut() {
                *depth += line.matches(['{', '(']).count() as i32;
                *depth -= line.matches(['}', ')']).count() as i32;
                if *depth <= 0 {
                    thread_local = None;
                }
            }
        }
    }
    sites
}

#[test]
fn no_process_state_outside_obs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sites = process_state_sites(root);
    let allowed = |(file, name): &(String, String)| {
        PROCESS_STATE_ALLOWLIST.contains(&(file.as_str(), name.as_str()))
    };
    let offending: Vec<_> = sites.iter().filter(|s| !allowed(s)).collect();
    assert!(offending.is_empty(), "process-wide state: {offending:?}");
    // The allowlist must not outlive what it names.
    assert_eq!(sites.len(), PROCESS_STATE_ALLOWLIST.len(), "{sites:?}");
}

/// The public items `no_test_only_public_functions` tolerates, as `(file,
/// name)`: the reference oracles and test hooks that tier-1 tests and the
/// README call on purpose.
const TEST_ONLY_ALLOWLIST: [(&str, &str); 5] = [
    ("crates/bench/src/lifecycle.rs", "serve_cells"),
    ("crates/metrics/src/loadgen.rs", "saturation_rps"),
    ("crates/model/src/function.rs", "file_conflict"),
    ("crates/runtime/src/platform.rs", "execute_reference"),
    ("crates/runtime/src/span.rs", "check_invariants"),
];

/// The lines of `text` outside its `#[cfg(test)]` items. A gated item
/// ends at its first `;` if it opens no brace, else where its braces
/// balance.
fn non_test_lines(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if line.trim() != "#[cfg(test)]" {
            out.push(line);
            continue;
        }
        let (mut depth, mut opened) = (0i32, false);
        for line in lines.by_ref() {
            let t = line.trim();
            if !opened && t.starts_with("#[") {
                continue;
            }
            depth += line.matches('{').count() as i32 - line.matches('}').count() as i32;
            opened |= line.contains('{');
            if (opened && depth <= 0) || (!opened && t.ends_with(';')) {
                break;
            }
        }
    }
    out
}

fn identifier(word: &str) -> &str {
    let end = word
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(word.len());
    &word[..end]
}

/// The name a line defines with `fn NAME` or `const NAME`, if any.
fn defined_name(line: &str) -> Option<&str> {
    let words: Vec<&str> = line.split_whitespace().collect();
    words.windows(2).find_map(|w| {
        let defines = w[0] == "fn" || (w[0] == "const" && !["fn", "unsafe"].contains(&w[1]));
        defines.then(|| identifier(w[1]))
    })
}

/// Every `pub fn` and `pub const` outside `#[cfg(test)]` in
/// `crates/*/src` that no non-test source (`crates/*/src`, `src/`,
/// `examples/`, `perfbench/src`) names apart from its definition, comments
/// and `pub use` lists, as `(file, name)`.
fn test_only_public_items(root: &Path) -> Vec<(String, String)> {
    let crate_files = crate_sources(root);
    let mut files = crate_files.clone();
    for dir in ["src", "examples", "perfbench/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut defined = Vec::new();
    let mut named = std::collections::HashSet::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source file");
        let rel = file.strip_prefix(root).unwrap().display().to_string();
        let mut in_use = false;
        for line in non_test_lines(&text) {
            let line = line.trim();
            if crate_files.contains(file) && line.starts_with("pub ") {
                if let Some(name) = defined_name(line).filter(|n| !n.is_empty()) {
                    defined.push((rel.clone(), name.to_string()));
                }
            }
            if line.starts_with("//") {
                continue;
            }
            if line.starts_with("pub use") || in_use {
                in_use = !line.ends_with(';');
                continue;
            }
            let code = line.split("//").next().unwrap_or_default();
            let own = defined_name(code);
            for word in code.split(|c: char| !c.is_alphanumeric() && c != '_') {
                if !word.is_empty() && Some(word) != own {
                    named.insert(word.to_string());
                }
            }
        }
    }
    defined.retain(|(_, name)| !named.contains(name));
    defined.sort();
    defined
}

#[test]
fn no_test_only_public_functions() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let items = test_only_public_items(root);
    let allowed = |(file, name): &(String, String)| {
        TEST_ONLY_ALLOWLIST.contains(&(file.as_str(), name.as_str()))
    };
    let offending: Vec<_> = items.iter().filter(|i| !allowed(i)).collect();
    assert!(
        offending.is_empty(),
        "{} public items only tests use: {offending:?}",
        offending.len()
    );
    // The allowlist must not outlive what it names.
    assert_eq!(items.len(), TEST_ONLY_ALLOWLIST.len(), "{items:?}");
}

/// Every `#[test]` function under `crates/*/src`, as `file::name`.
fn unit_tests(root: &Path) -> BTreeSet<String> {
    let mut tests = BTreeSet::new();
    for file in crate_sources(root) {
        let rel = file.strip_prefix(root).unwrap().display().to_string();
        let text = std::fs::read_to_string(&file).expect("readable source file");
        let mut marked = false;
        for line in text.lines().map(str::trim) {
            if line == "#[test]" {
                marked = true;
            } else if let Some(name) = defined_name(line).filter(|_| marked) {
                tests.insert(format!("{rel}::{name}"));
                marked = false;
            }
        }
    }
    tests
}

#[test]
fn unit_tests_are_the_kept_list() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let list = std::fs::read_to_string(root.join("tests/unit_tests.txt")).expect("the kept list");
    let kept: BTreeSet<String> = list
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (test, reason) = l.split_once(" — ").expect("`file::test — reason`");
            assert!(!reason.trim().is_empty(), "no reason for {test}");
            test.trim().to_string()
        })
        .collect();
    let found = unit_tests(root);
    let unlisted: Vec<_> = found.difference(&kept).collect();
    let missing: Vec<_> = kept.difference(&found).collect();
    assert!(
        unlisted.is_empty() && missing.is_empty(),
        "unit tests not on tests/unit_tests.txt: {unlisted:?}; listed but gone: {missing:?}"
    );
}

/// The comment that marks the `[dependencies]` entry under it as unused,
/// kept only because `cargo build --locked` of perfbench needs its
/// committed lockfile to match the crates' dependency sets.
const UNUSED_DEPENDENCY: &str =
    "# Unused; stays until perfbench/Cargo.lock is next refreshed, which --locked needs.";

/// The manifest tables the dependency ledger reads. perfbench's lockfile
/// holds no dev-dependency of the crates, so none needs an annotation.
const DEPENDENCY_TABLES: [&str; 2] = ["[dependencies]", "[dev-dependencies]"];

/// Whether a non-comment line of `text` names the crate `name` as a path
/// root (`name::`) or in a `use name` item.
fn names_crate(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut lines = text.lines().map(str::trim).filter(|l| !l.starts_with("//"));
    lines.any(|line| {
        line.match_indices(name).any(|(at, _)| {
            let (before, after) = (&line[..at], &line[at + name.len()..]);
            !before.ends_with(ident)
                && (after.starts_with("::")
                    || (before.ends_with("use ") && !after.starts_with(ident)))
        })
    })
}

/// The text of every `.rs` file under `dirs`.
fn source_texts(dirs: &[PathBuf]) -> Vec<String> {
    let mut files = Vec::new();
    for dir in dirs {
        rust_files(dir, &mut files);
    }
    files
        .iter()
        .map(|f| std::fs::read_to_string(f).expect("readable source file"))
        .collect()
}

#[test]
fn unused_dependencies_are_the_annotated_ones() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // (package directory, sources its [dependencies] serve, sources its
    // [dev-dependencies] serve). A crate's unit tests sit in its src/;
    // the root package's library is src/, and its tests/ and examples/
    // build against its dev-dependencies.
    let mut packages = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let dir = krate.expect("directory entry").path();
        let src = source_texts(&[dir.join("src")]);
        packages.push((dir, src.clone(), src));
    }
    let dirs = ["src", "tests", "examples"].map(|d| root.join(d));
    packages.push((
        root.to_path_buf(),
        source_texts(&dirs[..1]),
        source_texts(&dirs),
    ));
    let mut problems = Vec::new();
    for (dir, lib, dev) in &packages {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("a manifest");
        let package = dir.strip_prefix(root).unwrap().join("Cargo.toml");
        let package = package.display();
        let (mut section, mut annotated) = ("", false);
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            } else if DEPENDENCY_TABLES.contains(&section)
                && !line.is_empty()
                && !line.starts_with('#')
            {
                let dep = line.split([' ', '=', '.']).next().unwrap_or_default();
                let name = dep.replace('-', "_");
                let sources = if section == DEPENDENCY_TABLES[0] {
                    lib
                } else {
                    dev
                };
                let used = sources.iter().any(|text| names_crate(text, &name));
                if used && annotated {
                    problems.push(format!(
                        "{package}: `{dep}` is annotated unused but its sources name it"
                    ));
                } else if !used && !annotated {
                    problems.push(format!("{package}: its sources never name `{dep}`"));
                }
            }
            annotated = line == UNUSED_DEPENDENCY;
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
