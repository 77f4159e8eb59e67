//! Pins the analysis output over the Figure 2 grid: eight programs (the
//! six Table 1 mimics plus `server` and `server-churn`) x modes F/A x
//! inline limits {0, 25, 50, 100, 200}.
//!
//! Three numbers per sweep must not move when the analysis is made
//! faster: the elided-site count, the blocks the fixpoint visits (so a
//! speed-up comes from cheaper block visits, not fewer of them), and an
//! order-independent fingerprint of exactly which sites are elided.

use wbe_ir::Program;
use wbe_opt::{compile, OptMode, PipelineConfig};

const PROGRAMS: [&str; 8] = [
    "jess",
    "db",
    "javac",
    "mtrt",
    "jack",
    "jbb",
    "server",
    "server-churn",
];
const MODES: [OptMode; 2] = [OptMode::FieldOnly, OptMode::Full];
const LIMITS: [usize; 5] = [0, 25, 50, 100, 200];

/// FNV-1a over the little-endian bytes of each word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[derive(Debug, Default, PartialEq, Eq)]
struct SweepTotals {
    elided: usize,
    blocks_visited: usize,
    /// XOR over jobs of each job's FNV-1a of its elided
    /// `(method, block, index)` triples, in `elided_sites()` order.
    elided_hash: u64,
}

fn sweep(programs: &[Program]) -> SweepTotals {
    let mut t = SweepTotals::default();
    for program in programs {
        for mode in MODES {
            for limit in LIMITS {
                let compiled = compile(program, &PipelineConfig::new(mode, limit));
                let analysis = compiled
                    .analysis
                    .as_ref()
                    .expect("F and A run the analysis");
                assert_eq!(analysis.degraded_count(), 0, "no method may degrade");
                let mut h = Fnv::new();
                for (m, at) in compiled.elided_sites() {
                    h.add(u64::from(m.0));
                    h.add(u64::from(at.block.0));
                    h.add(at.index as u64);
                }
                t.elided += analysis.total_elided();
                t.blocks_visited += analysis
                    .methods
                    .values()
                    .map(|m| m.iterations)
                    .sum::<usize>();
                t.elided_hash ^= h.0;
            }
        }
    }
    t
}

#[test]
fn fig2_grid_analysis_output_is_pinned() {
    let programs: Vec<Program> = PROGRAMS
        .iter()
        .map(|n| wbe_workloads::by_name(n).expect("known workload").program)
        .collect();
    let t = sweep(&programs);
    assert_eq!(
        t,
        SweepTotals {
            elided: 366,
            blocks_visited: 4392,
            elided_hash: 0x6ee2_c57c_e805_fec8,
        },
        "elided={} blocks_visited={} elided_hash={:016x}",
        t.elided,
        t.blocks_visited,
        t.elided_hash
    );
}
