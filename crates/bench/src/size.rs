//! Table 2 reproduction: size requirements of INDISS vs. native stacks.
//!
//! The paper counts, per component, the artifact size in KB, the number
//! of Java classes, and NCSS (non-commented source statements). Our
//! equivalents over the Rust sources: bytes of implementation source
//! (tests stripped), number of type definitions (`struct`/`enum`/`trait`,
//! the closest analogue of "classes"), and non-comment non-blank source
//! lines. What must reproduce is the *relative* claim: a unit is an order
//! of magnitude smaller than the native stack it replaces, and
//! `native + INDISS` beats `both natives + a second client` as services
//! accumulate.

use std::fmt;
use std::path::{Path, PathBuf};

/// Size metrics of one component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SizeMetrics {
    /// Bytes of implementation source (test modules stripped).
    pub bytes: u64,
    /// Number of type definitions (struct + enum + trait).
    pub types: u64,
    /// Non-comment, non-blank source lines.
    pub ncss: u64,
}

impl SizeMetrics {
    /// Kilobytes, as Table 2 prints.
    pub fn kb(&self) -> f64 {
        self.bytes as f64 / 1024.0
    }
}

impl std::ops::Add for SizeMetrics {
    type Output = SizeMetrics;

    fn add(self, rhs: SizeMetrics) -> SizeMetrics {
        SizeMetrics {
            bytes: self.bytes + rhs.bytes,
            types: self.types + rhs.types,
            ncss: self.ncss + rhs.ncss,
        }
    }
}

impl fmt::Display for SizeMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:7.1} KB {:5} types {:6} NCSS", self.kb(), self.types, self.ncss)
    }
}

/// Strips `#[cfg(test)]`-gated module bodies (everything from the marker
/// to end of file, since this codebase puts tests last in each file).
fn strip_tests(source: &str) -> &str {
    match source.find("#[cfg(test)]") {
        Some(i) => &source[..i],
        None => source,
    }
}

/// Measures one `.rs` source string.
pub fn measure_source(source: &str) -> SizeMetrics {
    let code = strip_tests(source);
    let mut metrics = SizeMetrics { bytes: code.len() as u64, ..SizeMetrics::default() };
    for line in code.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with("//") {
            continue;
        }
        metrics.ncss += 1;
        // Count type definitions; `pub struct X`, `struct X`, etc.
        let mut tokens = trimmed.split_whitespace().peekable();
        while let Some(tok) = tokens.next() {
            if matches!(tok, "struct" | "enum" | "trait")
                && tokens.peek().map(|n| n.chars().next().map(char::is_alphabetic))
                    == Some(Some(true))
            {
                metrics.types += 1;
                break;
            }
            if !matches!(tok, "pub" | "pub(crate)" | "pub(super)") {
                break;
            }
        }
    }
    metrics
}

/// Measures every `.rs` file under a directory (recursive), or a single
/// file if the path is one.
pub fn measure_path(path: &Path) -> std::io::Result<SizeMetrics> {
    let mut total = SizeMetrics::default();
    if path.is_file() {
        let source = std::fs::read_to_string(path)?;
        return Ok(measure_source(&source));
    }
    for entry in std::fs::read_dir(path)? {
        let entry = entry?;
        let p = entry.path();
        if p.is_dir() {
            total = total + measure_path(&p)?;
        } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
            let source = std::fs::read_to_string(&p)?;
            total = total + measure_source(&source);
        }
    }
    Ok(total)
}

/// Locates the workspace root from this crate's manifest directory.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("bench crate lives at <root>/crates/bench")
        .to_path_buf()
}

/// One row of the reproduced Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Component name (paper terminology).
    pub name: String,
    /// Measured metrics.
    pub metrics: SizeMetrics,
}

/// The `crates/core/src` files that make up the **paper-scope
/// artifact** — the prototype Table 2 measured: the monitor (§2.1), the
/// event vocabulary (§2.3), the FSM engine (§2.3), the runtime's
/// session routing and dynamic composition (§2.2, §3), the §4.2
/// adaptation policy, plus the unit interface and the shared error
/// type. The SLP and UPnP units complete the "INDISS total" row,
/// exactly as in the paper.
///
/// This list is the scoping rule, stated positively: a row is in
/// "INDISS total" because the paper measured its counterpart, not
/// because it failed to match an exclusion. Everything else in the
/// crate is production superset — registry, interner, open-protocol
/// API, config surface, concurrency runtime, network front-end — and
/// is reported as its own named row below. The gate test asserts every
/// source file in the crate is claimed by exactly one row, so new
/// subsystems must be classified, not silently absorbed.
const PAPER_SCOPE_CORE: &[&str] = &[
    "monitor.rs",
    "event.rs",
    "fsm.rs",
    "runtime.rs",
    "adapt.rs",
    "error.rs",
    "lib.rs",
    "units/mod.rs",
];

/// The production-superset rows: `(row name, files)`. Together with
/// [`PAPER_SCOPE_CORE`] and the four unit files these must cover
/// `crates/core/src` completely (asserted by the gate test).
const SUPERSET_ROWS: &[(&str, &[&str])] = &[
    (
        "Registry subsystem (production)",
        &[
            "registry/mod.rs",
            "registry/record.rs",
            "registry/index.rs",
            "registry/expiry.rs",
            "registry/shard.rs",
        ],
    ),
    ("Symbol interner (production)", &["symbol.rs"]),
    ("Open protocol API (extension)", &["protocol.rs"]),
    ("Config surface (tooling)", &["config.rs"]),
    ("Config language (tooling)", &["config_lang.rs"]),
    ("Concurrency runtime (scale-out)", &["pool.rs", "gateway.rs"]),
    ("Network front-end (deployment)", &["netfront.rs"]),
    // `fuzz_tests.rs` is `#[cfg(test)]`-only (the decoder fuzz walk and
    // its committed corpus) — claimed here so the completeness gate sees
    // it, measured alongside the tracker it hardens.
    ("Robustness layer (hostile worlds)", &["tracker.rs", "fuzz_tests.rs", "scenario.rs"]),
    ("Federated mesh (gateway-to-gateway)", &["mesh/mod.rs", "mesh/wire.rs", "mesh/custody.rs"]),
    (
        "Observability (spans + histograms + stats endpoint)",
        &["obs/mod.rs", "obs/trace.rs", "obs/hist.rs", "obs/export.rs"],
    ),
];

fn measure_files(core_src: &Path, files: &[&str]) -> std::io::Result<SizeMetrics> {
    let mut total = SizeMetrics::default();
    for file in files {
        total = total + measure_path(&core_src.join(file))?;
    }
    Ok(total)
}

/// Every core source file, relative to `crates/core/src` (for the
/// completeness check).
pub fn core_source_files() -> std::io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, base: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let p = entry?.path();
            if p.is_dir() {
                walk(&p, base, out)?;
            } else if p.extension().map(|e| e == "rs").unwrap_or(false) {
                out.push(p.strip_prefix(base).expect("under base").to_path_buf());
            }
        }
        Ok(())
    }
    let core_src = workspace_root().join("crates/core/src");
    let mut files = Vec::new();
    walk(&core_src, &core_src, &mut files)?;
    files.sort();
    Ok(files)
}

/// The files [`table2`]'s core rows claim, relative to
/// `crates/core/src` (for the completeness check).
pub fn claimed_core_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = PAPER_SCOPE_CORE.iter().map(PathBuf::from).collect();
    files.extend(
        ["units/slp.rs", "units/upnp.rs", "units/jini.rs", "units/descriptor.rs"]
            .iter()
            .map(PathBuf::from),
    );
    for (_, row_files) in SUPERSET_ROWS {
        files.extend(row_files.iter().map(PathBuf::from));
    }
    files.sort();
    files
}

/// Computes the full Table 2 equivalent from the workspace sources.
/// See `PAPER_SCOPE_CORE` (in this module's source) for the scoping
/// rule.
///
/// # Errors
///
/// I/O errors reading the source tree.
pub fn table2() -> std::io::Result<Vec<Table2Row>> {
    let root = workspace_root();
    let core_src = root.join("crates/core/src");
    let units = core_src.join("units");

    let slp_unit = measure_path(&units.join("slp.rs"))?;
    let upnp_unit = measure_path(&units.join("upnp.rs"))?;
    let jini_unit = measure_path(&units.join("jini.rs"))?;
    let descriptor_unit = measure_path(&units.join("descriptor.rs"))?;
    let core_framework = measure_files(&core_src, PAPER_SCOPE_CORE)?;

    let slp_stack = measure_path(&root.join("crates/slp/src"))?;
    // Cyberlink for Java shipped its own HTTP server and XML parser; our
    // UPnP stack gets those from substrate crates, so the "Cyberlink
    // role" aggregate includes them for a like-for-like comparison.
    let upnp_stack = measure_path(&root.join("crates/upnp/src"))?
        + measure_path(&root.join("crates/ssdp/src"))?
        + measure_path(&root.join("crates/http/src"))?
        + measure_path(&root.join("crates/xml/src"))?;
    let indiss_total = core_framework + slp_unit + upnp_unit;

    let mut rows = vec![
        Table2Row { name: "Core framework (paper scope)".into(), metrics: core_framework },
        Table2Row { name: "UPnP Unit".into(), metrics: upnp_unit },
        Table2Row { name: "SLP Unit".into(), metrics: slp_unit },
        Table2Row { name: "Jini Unit (extension)".into(), metrics: jini_unit },
        Table2Row { name: "Descriptor Unit (extension)".into(), metrics: descriptor_unit },
    ];
    for (name, files) in SUPERSET_ROWS {
        rows.push(Table2Row {
            name: (*name).to_owned(),
            metrics: measure_files(&core_src, files)?,
        });
    }
    // The batched I/O engine lives in the net crate (deployment
    // substrate, not core), so it is a superset row measured directly
    // rather than a claimed core file.
    let net_src = root.join("crates/net/src");
    rows.push(Table2Row {
        name: "Batched I/O engine (net: reactor + syscalls + transport)".into(),
        metrics: measure_path(&net_src.join("sys.rs"))?
            + measure_path(&net_src.join("reactor.rs"))?
            + measure_path(&net_src.join("batched.rs"))?,
    });
    rows.push(Table2Row {
        name: "INDISS total (paper-scope core + SLP&UPnP units)".into(),
        metrics: indiss_total,
    });
    rows.push(Table2Row { name: "SLP stack (OpenSLP role)".into(), metrics: slp_stack });
    rows.push(Table2Row {
        name: "UPnP stack (Cyberlink role: upnp+ssdp+http+xml)".into(),
        metrics: upnp_stack,
    });
    // The comparisons the paper draws.
    let dual = slp_stack + upnp_stack;
    rows.push(Table2Row {
        name: "interop without INDISS (both stacks + 2nd client)".into(),
        metrics: dual,
    });
    rows.push(Table2Row { name: "UPnP stack + INDISS".into(), metrics: upnp_stack + indiss_total });
    rows.push(Table2Row { name: "SLP stack + INDISS".into(), metrics: slp_stack + indiss_total });
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_code_not_comments() {
        let src =
            "// comment\n\npub struct A;\nstruct B { x: u8 }\nenum C { D }\n// more\nfn f() {}\n";
        let m = measure_source(src);
        assert_eq!(m.types, 3);
        assert_eq!(m.ncss, 4);
    }

    #[test]
    fn tests_are_stripped() {
        let src = "struct A;\n#[cfg(test)]\nmod tests { struct Fake; }\n";
        let m = measure_source(src);
        assert_eq!(m.types, 1);
    }

    #[test]
    fn keywords_in_other_positions_do_not_count() {
        let src = "fn f(x: MyStruct) {}\nlet trait_object = 1;\nimpl Foo for Bar {}\n";
        assert_eq!(measure_source(src).types, 0);
    }

    /// Every core source file must be claimed by exactly one Table 2
    /// row: a new subsystem has to be classified (paper scope or a
    /// named production row), never silently absorbed into — or dropped
    /// from — the "INDISS total" the gate below compares.
    #[test]
    fn table2_scoping_covers_every_core_file() {
        let on_disk = core_source_files().expect("source tree readable");
        let claimed = claimed_core_files();
        assert_eq!(
            on_disk, claimed,
            "crates/core/src files and Table 2 row claims diverged; classify the \
             new/renamed file in size.rs (PAPER_SCOPE_CORE or SUPERSET_ROWS)"
        );
    }

    #[test]
    fn table2_has_the_papers_shape() {
        let rows = table2().expect("source tree readable");
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.name.starts_with(name))
                .unwrap_or_else(|| panic!("{name} row"))
                .metrics
        };
        let upnp_unit = get("UPnP Unit");
        let slp_unit = get("SLP Unit");
        let upnp_stack = get("UPnP stack");
        let slp_stack = get("SLP stack");
        // Paper: each unit is much smaller than the native stack it fronts
        // (UPnP unit 125 KB vs Cyberlink 372 KB; SLP unit 49 KB vs
        // OpenSLP 126 KB) and the UPnP artifacts dominate the SLP ones.
        assert!(upnp_unit.ncss < upnp_stack.ncss / 2, "unit ≪ stack");
        assert!(slp_unit.ncss < slp_stack.ncss / 2, "unit ≪ stack");
        // (compared in bytes, the paper's KB column; NCSS is within noise)
        assert!(upnp_stack.bytes > slp_stack.bytes, "UPnP stack is the bigger one");
        assert!(upnp_unit.ncss > slp_unit.ncss, "UPnP unit is the bigger unit");
        // The headline comparison: the whole of INDISS is smaller than
        // carrying a second native stack. (The paper's −31.5 % for the
        // SLP host does not reproduce in sign here; the `paper` binary
        // prints why next to that row.)
        assert!(
            get("INDISS total").ncss < get("interop without INDISS").ncss,
            "INDISS ≪ dual stack"
        );
    }
}
