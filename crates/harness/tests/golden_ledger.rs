//! Golden regression: the headline elision ledger (mode A, inline 100)
//! of all eight workloads is byte-identical to `baselines/ledger.ndjson`.
//!
//! The ledger carries every barrier site's verdict and evidence chain
//! (receiver sets, NL membership, σ/NR facts), so this pins the
//! analysis' states, not just its elision counts. Regenerate after an
//! intentional analysis change with:
//!
//! ```text
//! for w in jess db javac mtrt jack jbb server server-churn; do
//!     cargo run -q --release -p wbe-harness --bin wbe_tool -- ledger "$w"
//! done > baselines/ledger.ndjson
//! ```

use std::path::PathBuf;

use wbe_opt::OptMode;

const WORKLOADS: [&str; 8] = [
    "jess",
    "db",
    "javac",
    "mtrt",
    "jack",
    "jbb",
    "server",
    "server-churn",
];

#[test]
fn headline_ledger_matches_the_golden_file() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines/ledger.ndjson");
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut ndjson = String::new();
    for name in WORKLOADS {
        let w = wbe_workloads::by_name(name).expect("known workload");
        let ledger = wbe_harness::ledger::build_ledger(&w.program, OptMode::Full, 100, false)
            .expect("mode A runs the analysis");
        ndjson.push_str(&ledger.to_ndjson());
    }
    assert_eq!(ndjson.lines().count(), 104, "headline barrier sites");
    if ndjson != golden {
        let first = ndjson
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(ndjson.lines().count().min(golden.lines().count()));
        panic!(
            "ledger differs from {} at line {}:\n  got:    {}\n  golden: {}",
            path.display(),
            first + 1,
            ndjson.lines().nth(first).unwrap_or("<end>"),
            golden.lines().nth(first).unwrap_or("<end>"),
        );
    }
}
