//! Reproduces the paper's §4 evidence in one run: Table 2, Figs. 6–9,
//! the "no additional traffic" claim and the location × direction
//! ablation, each printed next to the paper's value.
//!
//! Every row also lands in `BENCH_paper.json` at the workspace root.
//! Response times (medians of 30 seeded trials, §4.3) and traffic
//! bytes are measured in virtual time, so they carry
//! `"clock": "virtual"` and are identical on every host; Table 2's
//! source-size rows carry `"clock": "none"`. Two runs write
//! byte-identical files, so the committed copy is diffed in CI.
//!
//! Run with `cargo run --release -p indiss-bench --bin paper`.

use std::time::Duration;

use indiss_bench::scenarios::{
    adaptation, bridged, location_matrix, native_slp, native_upnp, traffic_overhead, Deployment,
    Direction,
};
use indiss_bench::{fmt_ms, print_row, size, stats, TRIAL_SEEDS};
use indiss_net::SimTime;

/// Why Table 2's SLP-host comparison comes out with the opposite sign.
const SLP_HOST_NOTE: &str = "the paper's -31.5% does not reproduce in sign: this Rust SLP stack \
     is far heavier relative to its UPnP stack than OpenSLP in C was relative to Cyberlink in Java";

/// Table 2's published values, by row-name prefix.
const TABLE2_PAPER: [(&str, &str); 8] = [
    ("Core framework", "44 KB / 15 classes / 789 NCSS"),
    ("UPnP Unit", "125 KB / 18 classes / 1515 NCSS"),
    ("SLP Unit", "49 KB / 6 classes / 606 NCSS"),
    ("SLP stack (", "126 KB / 21 classes / 1361 NCSS"),
    ("UPnP stack (", "372 KB / 107 classes / 5887 NCSS"),
    ("interop without INDISS", "514 KB"),
    ("UPnP stack + INDISS", "598 KB"),
    ("SLP stack + INDISS", "352 KB"),
];

/// One row of `BENCH_paper.json`.
struct Row {
    figure: &'static str,
    label: String,
    /// The measured members, rendered as JSON (`"median_ms": …`).
    value: String,
    paper: Option<&'static str>,
    clock: &'static str,
    note: Option<&'static str>,
}

impl Row {
    fn virtual_time(figure: &'static str, label: &str, value: String, paper: &'static str) -> Row {
        let paper = (paper != "—").then_some(paper);
        Row { figure, label: label.to_owned(), value, paper, clock: "virtual", note: None }
    }

    fn json(&self) -> String {
        let opt = |s: Option<&str>| s.map_or("null".to_owned(), |s| format!("{s:?}"));
        let note = self.note.map_or(String::new(), |n| format!(", \"note\": {n:?}"));
        format!(
            "    {{ \"figure\": {:?}, \"row\": {:?}, {}, \"paper\": {}, \"clock\": {:?}{note} }}",
            self.figure,
            self.label,
            self.value,
            opt(self.paper),
            self.clock
        )
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn summary_value(s: &stats::Summary) -> String {
    format!(
        "\"median_ms\": {:.6}, \"min_ms\": {:.6}, \"max_ms\": {:.6}, \"n\": {}",
        ms(s.median),
        ms(s.min),
        ms(s.max),
        s.trials
    )
}

/// Prints one response-time row and records it.
fn timed(
    rows: &mut Vec<Row>,
    figure: &'static str,
    label: &str,
    summary: &stats::Summary,
    paper: &'static str,
) {
    print_row(label, summary, paper);
    rows.push(Row::virtual_time(figure, label, summary_value(summary), paper));
}

fn table2(rows: &mut Vec<Row>) {
    println!("Table 2 — size requirements (implementation source, tests stripped)");
    println!("{:<52} {:>10} {:>8} {:>8}", "component", "KB", "types", "NCSS");
    println!("{}", "-".repeat(82));
    let table = size::table2().expect("workspace sources readable");
    for row in &table {
        let m = row.metrics;
        println!("{:<52} {:>10.1} {:>8} {:>8}", row.name, m.kb(), m.types, m.ncss);
        rows.push(Row {
            figure: "Table 2",
            label: row.name.clone(),
            value: format!("\"kb\": {:.1}, \"types\": {}, \"ncss\": {}", m.kb(), m.types, m.ncss),
            paper: TABLE2_PAPER.iter().find(|(p, _)| row.name.starts_with(p)).map(|(_, v)| *v),
            clock: "none",
            note: None,
        });
    }
    let bytes = |name: &str| {
        table.iter().find(|r| r.name.starts_with(name)).expect(name).metrics.bytes as f64
    };
    let dual = bytes("interop without INDISS");
    println!("{}", "-".repeat(82));
    for (label, host, paper, note) in [
        ("UPnP host + INDISS vs dual stack", "UPnP stack + INDISS", "+14%", None),
        ("SLP host + INDISS vs dual stack", "SLP stack + INDISS", "-31.5%", Some(SLP_HOST_NOTE)),
    ] {
        let pct = (bytes(host) / dual - 1.0) * 100.0;
        println!("{:<34}{pct:+.1}%   (paper: {paper})", format!("{label}:"));
        if let Some(note) = note {
            println!("  note: {note}");
        }
        rows.push(Row {
            figure: "Table 2",
            label: label.to_owned(),
            value: format!("\"pct\": {pct:.1}"),
            paper: Some(paper),
            clock: "none",
            note,
        });
    }
}

fn fig7(rows: &mut Vec<Row>) {
    println!("Fig. 7 — native clients & services (median of 30 seeded trials)");
    let slp = stats::summarize(TRIAL_SEEDS, native_slp);
    timed(rows, "Fig. 7", "SLP -> SLP", &slp, "0.7 ms");
    let upnp = stats::summarize(TRIAL_SEEDS, native_upnp);
    timed(rows, "Fig. 7", "UPnP -> UPnP", &upnp, "40 ms");
    println!();
    println!(
        "shape check: UPnP/SLP ratio = {:.0}x (paper: ~57x)",
        upnp.median.as_secs_f64() / slp.median.as_secs_f64()
    );
}

fn cold(deployment: Deployment, direction: Direction) -> stats::Summary {
    stats::summarize(TRIAL_SEEDS, |s| bridged(s, deployment, direction, false))
}

fn fig8(rows: &mut Vec<Row>) {
    println!("Fig. 8 — INDISS on the service side (median of 30 seeded trials)");
    let slp_to_upnp = cold(Deployment::ServiceSide, Direction::SlpToUpnp);
    timed(rows, "Fig. 8", "SLP client -> [SLP-UPnP] UPnP service", &slp_to_upnp, "65 ms");
    let upnp_to_slp = cold(Deployment::ServiceSide, Direction::UpnpToSlp);
    timed(rows, "Fig. 8", "UPnP client -> [UPnP-SLP] SLP service", &upnp_to_slp, "40 ms (*)");
    println!();
    println!("(*) the paper's 40 ms was dominated by the Cyberlink stack answering");
    println!("    the M-SEARCH; INDISS itself answers here, so our bridged UPnP-client");
    println!("    case is *faster* than their native stack. Ordering is preserved:");
    println!("    bridged-UPnP-client <= native-UPnP in both studies.");
}

fn fig9(rows: &mut Vec<Row>) {
    println!("Fig. 9 — INDISS on the client side (median of 30 seeded trials)");
    let slp_to_upnp = cold(Deployment::ClientSide, Direction::SlpToUpnp);
    timed(rows, "Fig. 9", "[SLP-UPnP] SLP client -> UPnP service", &slp_to_upnp, "80 ms");
    let upnp_to_slp = cold(Deployment::ClientSide, Direction::UpnpToSlp);
    timed(rows, "Fig. 9", "[UPnP-SLP] UPnP client -> SLP service (cold)", &upnp_to_slp, "—");
    let warm = stats::summarize(TRIAL_SEEDS, |s| {
        bridged(s, Deployment::ClientSide, Direction::UpnpToSlp, true)
    });
    timed(rows, "Fig. 9", "[UPnP-SLP] UPnP client -> SLP service (warm)", &warm, "0.12 ms");
    println!();
    println!("'warm' answers the M-SEARCH from INDISS's cache of the prior SLP");
    println!("round — the paper's best case, where only loopback UPnP messaging");
    println!("plus a composed response separates request from answer.");
}

fn fig6(rows: &mut Vec<Row>) {
    println!("Fig. 6 — traffic-threshold adaptation (passive client, passive service)");
    println!(
        "{:<28} {:>16} {:>18}",
        "background traffic", "went active at", "client discovered at"
    );
    println!("{}", "-".repeat(66));
    for (label, bps, paper) in [
        ("quiet network (0 B/s)", 0u64, "switches to active; the client discovers the service"),
        ("busy network (5 kB/s)", 5_000, "stays passive; no discovery"),
    ] {
        let outcome = adaptation(42, bps);
        let (active, discovered) = (outcome.went_active_at, outcome.discovered_at);
        let shown = |t: Option<SimTime>| t.map_or_else(|| "never".to_owned(), |t| t.to_string());
        println!("{label:<28} {:>16} {:>18}", shown(active), shown(discovered));
        let json_ms = |t: Option<SimTime>| {
            t.map_or_else(|| "null".to_owned(), |t| format!("{:.6}", t.as_millis_f64()))
        };
        let value = format!(
            "\"went_active_ms\": {}, \"discovered_ms\": {}",
            json_ms(active),
            json_ms(discovered)
        );
        rows.push(Row::virtual_time("Fig. 6", label, value, paper));
    }
    println!();
    println!("paper: on a quiet network INDISS switches to the active model and the");
    println!("blocked passive/passive configuration unblocks; on a busy network it");
    println!("stays passive to preserve bandwidth (interoperability degradation).");
}

fn traffic(rows: &mut Vec<Row>) {
    println!("Network bytes for one SLP discovery round (cross-node traffic only)");
    let (without, with) = traffic_overhead(42);
    println!("  native SLP -> SLP:                        {without:>6} bytes");
    println!("  SLP -> UPnP via service-side INDISS:      {with:>6} bytes");
    for (label, bytes) in
        [("native SLP -> SLP", without), ("SLP -> UPnP via service-side INDISS", with)]
    {
        let value = format!("\"bytes\": {bytes}");
        rows.push(Row::virtual_time("§4.3 traffic", label, value, "no additional traffic"));
    }
    println!();
    println!("the UPnP leg (M-SEARCH, 200 OK, description fetch) never leaves the");
    println!("service host; the cross-node traffic stays SLP-shaped.");
}

fn locations(rows: &mut Vec<Row>) {
    println!("Location × direction sweep (cold cache, median of 30)");
    println!("{:<14} {:<12} {:>10}", "deployment", "direction", "median");
    println!("{}", "-".repeat(40));
    for (deployment, direction, summary) in location_matrix(TRIAL_SEEDS) {
        let (deployment, direction) = (format!("{deployment:?}"), format!("{direction:?}"));
        println!("{deployment:<14} {direction:<12} {:>10}", fmt_ms(summary.median));
        let label = format!("{deployment} {direction}");
        rows.push(Row::virtual_time("location matrix", &label, summary_value(&summary), "—"));
    }
}

fn main() {
    let mut rows = Vec::new();
    let sections: [fn(&mut Vec<Row>); 7] = [table2, fig7, fig8, fig9, fig6, traffic, locations];
    for (i, section) in sections.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        section(&mut rows);
    }

    let lines: Vec<String> = rows.iter().map(Row::json).collect();
    let json = format!("{{\n  \"rows\": [\n{}\n  ]\n}}\n", lines.join(",\n"));
    std::fs::write(size::workspace_root().join("BENCH_paper.json"), json)
        .expect("write BENCH_paper.json");
    println!("\nwrote BENCH_paper.json ({} rows)", rows.len());
}
