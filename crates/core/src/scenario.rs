//! Declarative hostile worlds: the scenario layer.
//!
//! PR 7 gave the gateway point faults ([`indiss_net::FaultPlan`]) and
//! PR 8 federation (the mesh plane); this module turns both into
//! *data*. A world — node populations, per-lane fault rates, service
//! churn, mobility scripts, soak length, and the assertions the run
//! must satisfy — is declared as a [`WorldSpec`] value and compiled by
//! the scenario engine (`crates/bench/src/worlds.rs`) into a seeded
//! deterministic run.
//!
//! Three contracts live here, shared between the fuzz harness and the
//! bench engine:
//!
//! - [`WorldSpec`] and its parts, plus [`WorldSpec::validate`] — the
//!   range rules that keep absurd numbers out of the engine (a
//!   validated world is cheap to run).
//! - [`MemoryBudget`] / [`MemorySettlement`] capture the
//!   bounded-memory discipline the `registry_churn` bench pioneered:
//!   snapshot the interner before the storm, collect after, assert
//!   the footprint returned to within a declared budget.
//! - [`MutationSource`] is the PR 7 mutation fuzzer factored into a
//!   reusable generator, so the decoder fuzz loop and the live
//!   adversarial-traffic injector draw malformed datagrams from the
//!   same seeded strategy mix.
//!
//! Everything is deterministic: a [`ScenarioRng`] (SplitMix64) stream
//! from the world's seed, no wall clock, no global state.

use indiss_net::{FaultPlan, SimTime};

use crate::error::{CoreError, CoreResult};
use crate::symbol::Symbol;

/// Deterministic 64-bit generator (SplitMix64): tiny, seedable and
/// allocation-free. Step `n` of a given seed is always the same value,
/// which is the scenario layer's entire reproducibility story.
#[derive(Debug, Clone)]
pub struct ScenarioRng(u64);

impl ScenarioRng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        ScenarioRng(seed)
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw uniform in `0..n` (`n == 0` is treated as `1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Per-lane fault rates for every gateway transport in a world, as
/// integer percentages. Compiled to a [`FaultPlan`] by
/// [`WorldFault::plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorldFault {
    /// Percent of datagrams silently discarded.
    pub drop_pct: u32,
    /// Percent of datagrams with payload bits flipped.
    pub corrupt_pct: u32,
    /// Percent of datagrams held back behind later arrivals.
    pub delay_pct: u32,
    /// Percent of datagrams swapped with the next arrival.
    pub reorder_pct: u32,
    /// Percent of datagrams delivered twice.
    pub duplicate_pct: u32,
}

impl WorldFault {
    /// True when every rate is zero — the engine skips the fault
    /// wrapper entirely for such worlds.
    pub fn is_quiet(&self) -> bool {
        self.drop_pct == 0
            && self.corrupt_pct == 0
            && self.delay_pct == 0
            && self.reorder_pct == 0
            && self.duplicate_pct == 0
    }

    /// Compiles the rates into a [`FaultPlan`] seeded for one gateway.
    /// Time-partition windows (mobility cuts) are layered on by the
    /// engine per gateway; they are not part of the shared rates.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop: f64::from(self.drop_pct) / 100.0,
            corrupt: f64::from(self.corrupt_pct) / 100.0,
            delay: f64::from(self.delay_pct) / 100.0,
            delay_slots: if self.delay_pct > 0 { 4 } else { 0 },
            reorder: f64::from(self.reorder_pct) / 100.0,
            duplicate: f64::from(self.duplicate_pct) / 100.0,
            ..FaultPlan::default()
        }
    }
}

/// A scheduled link cut: one gateway's ingress is severed for a
/// half-open virtual-time window. Compiled to a
/// [`FaultPlan::time_partitions`] entry on that gateway's transport
/// only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkCut {
    /// Index of the gateway whose ingress is cut (0-based).
    pub gateway: u32,
    /// Window start, inclusive, in virtual seconds.
    pub from_secs: u32,
    /// Window end, exclusive, in virtual seconds.
    pub to_secs: u32,
}

impl LinkCut {
    /// The cut as a `[start, end)` window for
    /// [`FaultPlan::time_partitions`].
    pub fn window(&self) -> (SimTime, SimTime) {
        (SimTime::from_secs(u64::from(self.from_secs)), SimTime::from_secs(u64::from(self.to_secs)))
    }
}

/// A mobility script entry: at `at_secs` a service stops advertising
/// from `from_gateway` and re-originates at `to_gateway`. The handover
/// must converge to a single live record — the mesh's version vectors
/// and the registry's re-advertising guard are what this exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MobilityMove {
    /// Index of the moving service (0-based, within the world's
    /// service population).
    pub service: u32,
    /// Gateway the service leaves.
    pub from_gateway: u32,
    /// Gateway the service re-originates at.
    pub to_gateway: u32,
    /// Virtual second at which the move happens.
    pub at_secs: u32,
}

/// Declarative assertions a world's run must satisfy; `None` leaves a
/// dimension ungated. Checked by the engine after the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorldAsserts {
    /// Interner growth budget in bytes: after a post-run
    /// [`Symbol::collect`], the interned footprint must be within this
    /// many bytes of the pre-run snapshot ([`MemoryBudget`]).
    pub max_interned_bytes: Option<u64>,
    /// Minimum probe delivery rate, percent.
    pub min_delivery_pct: Option<u32>,
    /// Maximum records in any one gateway's registry at run end.
    pub max_registry_records: Option<u64>,
    /// Maximum adverts in any one gateway's custody buffers at run end.
    pub max_custody: Option<u64>,
    /// Maximum in-flight probe-tracker population at any tick.
    pub max_tracker_entries: Option<u64>,
}

/// The declarative shape of one hostile world. Defaults describe the
/// smallest legal world (two quiet gateways, a handful of services, ten
/// virtual seconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldSpec {
    /// Root seed; every draw in the run derives from it.
    pub seed: u64,
    /// Mesh-federated gateway population.
    pub gateways: u32,
    /// Service population (advert sources churned over the run).
    pub services: u32,
    /// Run length in virtual seconds.
    pub duration_secs: u32,
    /// Engine tick length in virtual milliseconds (gossip rounds,
    /// churn batches and probes are issued per tick).
    pub tick_millis: u32,
    /// Services (re-)announced per tick, drawn seeded from the
    /// population.
    pub churn_arrivals_per_tick: u32,
    /// Services departing per tick (their adverts left to expire).
    pub churn_departures_per_tick: u32,
    /// TTL stamped on churned adverts, in virtual seconds.
    pub advert_ttl_secs: u32,
    /// Shared per-lane fault rates for every gateway transport.
    pub fault: WorldFault,
    /// Scheduled per-gateway link cuts (virtual-time partitions).
    pub cuts: Vec<LinkCut>,
    /// Mobility script: services re-homing between gateways.
    pub moves: Vec<MobilityMove>,
    /// Malformed datagrams injected per tick from the mutation
    /// fuzzer's strategy mix ([`MutationSource`]).
    pub inject_per_tick: u32,
    /// When nonzero, the world is a soak: this many adverts are pushed
    /// through the registries (in addition to churn) with
    /// bounded-memory assertions expected in [`WorldSpec::asserts`].
    pub soak_records: u64,
    /// The assertions gating the run.
    pub asserts: WorldAsserts,
}

impl Default for WorldSpec {
    fn default() -> Self {
        WorldSpec {
            seed: 1,
            gateways: 2,
            services: 8,
            duration_secs: 10,
            tick_millis: 500,
            churn_arrivals_per_tick: 0,
            churn_departures_per_tick: 0,
            advert_ttl_secs: 8,
            fault: WorldFault::default(),
            cuts: Vec::new(),
            moves: Vec::new(),
            inject_per_tick: 0,
            soak_records: 0,
            asserts: WorldAsserts::default(),
        }
    }
}

impl WorldSpec {
    /// Checks every numeric field against the ranges the engine is
    /// sized for: an absurd number is a [`CoreError::BadConfig`] —
    /// never an unbounded allocation or a runaway loop.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadConfig`] naming the violated rule.
    pub fn validate(&self) -> CoreResult<()> {
        fn rule(ok: bool, why: &'static str) -> CoreResult<()> {
            if ok {
                Ok(())
            } else {
                Err(CoreError::BadConfig(why))
            }
        }
        rule((2..=64).contains(&self.gateways), "World: gateways must be 2..=64")?;
        rule((1..=2_000_000).contains(&self.services), "World: services must be 1..=2000000")?;
        rule((1..=3600).contains(&self.duration_secs), "World: duration_secs must be 1..=3600")?;
        rule((1..=10_000).contains(&self.tick_millis), "World: tick_millis must be 1..=10000")?;
        rule(
            self.churn_arrivals_per_tick <= 100_000,
            "World: churn_arrivals_per_tick must be <= 100000",
        )?;
        rule(
            self.churn_departures_per_tick <= 100_000,
            "World: churn_departures_per_tick must be <= 100000",
        )?;
        rule(
            (1..=86_400).contains(&self.advert_ttl_secs),
            "World: advert_ttl_secs must be 1..=86400",
        )?;
        for pct in [
            self.fault.drop_pct,
            self.fault.corrupt_pct,
            self.fault.delay_pct,
            self.fault.reorder_pct,
            self.fault.duplicate_pct,
        ] {
            rule(pct <= 100, "World: fault percentages must be <= 100")?;
        }
        rule(self.cuts.len() <= 64, "World: at most 64 cuts")?;
        for cut in &self.cuts {
            rule(cut.gateway < self.gateways, "World: cut gateway index out of range")?;
            rule(cut.from_secs < cut.to_secs, "World: cut window must have from_secs < to_secs")?;
            rule(
                cut.to_secs <= self.duration_secs,
                "World: cut window must end within duration_secs",
            )?;
        }
        rule(self.moves.len() <= 256, "World: at most 256 moves")?;
        for mv in &self.moves {
            rule(mv.service < self.services, "World: move service index out of range")?;
            rule(mv.from_gateway < self.gateways, "World: move from_gateway out of range")?;
            rule(mv.to_gateway < self.gateways, "World: move to_gateway out of range")?;
            rule(mv.from_gateway != mv.to_gateway, "World: a move must change gateways")?;
            rule(
                mv.at_secs <= self.duration_secs,
                "World: move at_secs must be within duration_secs",
            )?;
        }
        rule(self.inject_per_tick <= 1000, "World: inject_per_tick must be <= 1000")?;
        rule(self.soak_records <= 10_000_000, "World: soak_records must be <= 10000000")?;
        if let Some(pct) = self.asserts.min_delivery_pct {
            rule(pct <= 100, "World: asserts.min_delivery_pct must be <= 100")?;
        }
        Ok(())
    }

    /// Total node population of the world: gateways plus service
    /// hosts. The "≥ 1000-node churn world" in the scenario matrix is
    /// counted on this number.
    pub fn nodes(&self) -> u64 {
        u64::from(self.gateways) + u64::from(self.services)
    }

    /// Number of engine ticks the run spans.
    pub fn ticks(&self) -> u64 {
        u64::from(self.duration_secs)
            .saturating_mul(1000)
            .div_ceil(u64::from(self.tick_millis.max(1)))
    }
}

/// A pre-run snapshot of the symbol interner plus a growth budget:
/// the bounded-memory discipline shared by the `registry_churn` bench
/// and the soak worlds. Capture before the storm, [`settle`] after.
///
/// [`settle`]: MemoryBudget::settle
#[derive(Debug, Clone, Copy)]
pub struct MemoryBudget {
    interned_before: usize,
    limit: usize,
}

impl MemoryBudget {
    /// Collects dead symbols and snapshots the live interned footprint
    /// as the baseline the post-run footprint is measured against.
    /// `limit` is the allowed growth in bytes.
    pub fn capture(limit: usize) -> Self {
        Symbol::collect();
        MemoryBudget { interned_before: Symbol::interned_bytes(), limit }
    }

    /// The baseline footprint in bytes, as captured.
    pub fn interned_before(&self) -> usize {
        self.interned_before
    }

    /// Collects dead symbols and measures the run's residue against
    /// the budget.
    pub fn settle(&self) -> MemorySettlement {
        let reclaimed_entries = Symbol::collect();
        MemorySettlement {
            interned_before: self.interned_before,
            interned_after: Symbol::interned_bytes(),
            reclaimed_entries,
            limit: self.limit,
        }
    }
}

/// The outcome of a [`MemoryBudget::settle`]: footprints before and
/// after, and whether growth stayed within the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemorySettlement {
    /// Live interned bytes before the run.
    pub interned_before: usize,
    /// Live interned bytes after the run and a collection.
    pub interned_after: usize,
    /// Interner entries reclaimed by the settling collection.
    pub reclaimed_entries: usize,
    /// Allowed growth in bytes.
    pub limit: usize,
}

impl MemorySettlement {
    /// True when the post-run footprint is within `limit` bytes of the
    /// baseline. (The bound is on *growth*, not absolute size: other
    /// threads may intern concurrently, so the baseline floats.)
    pub fn within_budget(&self) -> bool {
        self.interned_after <= self.interned_before.saturating_add(self.limit)
    }

    /// Panics with a labelled diagnostic when the budget is exceeded.
    ///
    /// # Panics
    ///
    /// When [`within_budget`](MemorySettlement::within_budget) is false.
    pub fn assert_within(&self, context: &str) {
        assert!(
            self.within_budget(),
            "{context}: interner retained garbage: {} -> {} bytes (budget +{})",
            self.interned_before,
            self.interned_after,
            self.limit
        );
    }
}

/// The PR 7 mutation fuzzer as a reusable generator: raw byte soup and
/// structured mutations (truncations, extensions, splices, length-field
/// abuse, bit flips) of a seed corpus, drawn from a seeded
/// [`ScenarioRng`]. The decoder fuzz loop drives its iterations from
/// this; the scenario engine taps the same source as a live
/// malformed-datagram injector, so a world's adversarial traffic is
/// exactly the fuzzer's distribution.
#[derive(Debug, Clone)]
pub struct MutationSource {
    corpus: Vec<Vec<u8>>,
    rng: ScenarioRng,
}

impl MutationSource {
    /// A source drawing from `corpus`; an empty corpus degenerates to
    /// pure byte soup.
    pub fn new(seed: u64, corpus: Vec<Vec<u8>>) -> Self {
        MutationSource { corpus, rng: ScenarioRng::new(seed) }
    }

    /// The next fuzz input. The strategy mix is weighted toward
    /// mutations — random bytes mostly die in the first length check,
    /// mutated valid frames reach the deep branches.
    pub fn next_input(&mut self) -> Vec<u8> {
        let rng = &mut self.rng;
        let strategy = if self.corpus.is_empty() { 0 } else { rng.below(8) };
        match strategy {
            // Raw soup, length 0..=96: exercises the headers.
            0 => {
                let len = rng.below(97);
                (0..len).map(|_| rng.next_u64() as u8).collect()
            }
            // Truncation: valid prefix of a seed.
            1 => {
                let seed = &self.corpus[rng.below(self.corpus.len())];
                seed[..rng.below(seed.len() + 1)].to_vec()
            }
            // Extension: a seed plus trailing garbage.
            2 => {
                let mut v = self.corpus[rng.below(self.corpus.len())].clone();
                for _ in 0..rng.below(32) {
                    v.push(rng.next_u64() as u8);
                }
                v
            }
            // Splice: head of one seed, tail of another.
            3 => {
                let a = &self.corpus[rng.below(self.corpus.len())];
                let b = &self.corpus[rng.below(self.corpus.len())];
                let mut v = a[..rng.below(a.len() + 1)].to_vec();
                v.extend_from_slice(&b[rng.below(b.len() + 1)..]);
                v
            }
            // Length-field abuse: overwrite two adjacent bytes with an
            // extreme big-endian value (0xFFFF / 0x8000 / small).
            4 => {
                let mut v = self.corpus[rng.below(self.corpus.len())].clone();
                if v.len() >= 2 {
                    let at = rng.below(v.len() - 1);
                    let val: u16 = [0xFFFF, 0x8000, 0x7FFF, 0x0001][rng.below(4)];
                    v[at..at + 2].copy_from_slice(&val.to_be_bytes());
                }
                v
            }
            // Bit flips: 1..=8 single-bit corruptions.
            _ => {
                let mut v = self.corpus[rng.below(self.corpus.len())].clone();
                if !v.is_empty() {
                    for _ in 0..=rng.below(8) {
                        let at = rng.below(v.len());
                        v[at] ^= 1 << rng.below(8);
                    }
                }
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_world_validates() {
        WorldSpec::default().validate().expect("the smallest legal world is legal");
        assert_eq!(WorldSpec::default().nodes(), 10);
        assert_eq!(WorldSpec::default().ticks(), 20);
    }

    #[test]
    fn validate_rejects_out_of_range_numerics() {
        let cases: Vec<(&str, WorldSpec)> = vec![
            ("gateways low", WorldSpec { gateways: 1, ..WorldSpec::default() }),
            ("gateways high", WorldSpec { gateways: 65, ..WorldSpec::default() }),
            ("services zero", WorldSpec { services: 0, ..WorldSpec::default() }),
            ("services huge", WorldSpec { services: 2_000_001, ..WorldSpec::default() }),
            ("duration zero", WorldSpec { duration_secs: 0, ..WorldSpec::default() }),
            ("duration huge", WorldSpec { duration_secs: 3601, ..WorldSpec::default() }),
            ("tick zero", WorldSpec { tick_millis: 0, ..WorldSpec::default() }),
            ("tick huge", WorldSpec { tick_millis: u32::MAX, ..WorldSpec::default() }),
            (
                "fault pct",
                WorldSpec {
                    fault: WorldFault { drop_pct: 101, ..WorldFault::default() },
                    ..WorldSpec::default()
                },
            ),
            (
                "cut backwards",
                WorldSpec {
                    cuts: vec![LinkCut { gateway: 0, from_secs: 5, to_secs: 2 }],
                    ..WorldSpec::default()
                },
            ),
            (
                "cut gateway range",
                WorldSpec {
                    cuts: vec![LinkCut { gateway: 9, from_secs: 1, to_secs: 2 }],
                    ..WorldSpec::default()
                },
            ),
            (
                "move to itself",
                WorldSpec {
                    moves: vec![MobilityMove {
                        service: 0,
                        from_gateway: 1,
                        to_gateway: 1,
                        at_secs: 1,
                    }],
                    ..WorldSpec::default()
                },
            ),
            (
                "move service range",
                WorldSpec {
                    moves: vec![MobilityMove {
                        service: 99,
                        from_gateway: 0,
                        to_gateway: 1,
                        at_secs: 1,
                    }],
                    ..WorldSpec::default()
                },
            ),
            ("inject huge", WorldSpec { inject_per_tick: 1001, ..WorldSpec::default() }),
            ("soak huge", WorldSpec { soak_records: 10_000_001, ..WorldSpec::default() }),
            (
                "assert pct",
                WorldSpec {
                    asserts: WorldAsserts {
                        min_delivery_pct: Some(101),
                        ..WorldAsserts::default()
                    },
                    ..WorldSpec::default()
                },
            ),
        ];
        for (why, spec) in cases {
            let err = spec.validate().expect_err(why);
            assert!(matches!(err, CoreError::BadConfig(_)), "{why}: {err}");
        }
    }

    #[test]
    fn fault_rates_compile_to_a_plan() {
        let fault = WorldFault { drop_pct: 10, corrupt_pct: 5, ..WorldFault::default() };
        assert!(!fault.is_quiet());
        let plan = fault.plan(9);
        assert_eq!(plan.seed, 9);
        assert!((plan.drop - 0.10).abs() < 1e-9);
        assert!((plan.corrupt - 0.05).abs() < 1e-9);
        assert_eq!(plan.delay_slots, 0, "no delay slots without a delay rate");
        assert!(WorldFault::default().is_quiet());
    }

    #[test]
    fn mutation_source_is_deterministic() {
        let corpus = vec![b"HELLO WORLD".to_vec(), vec![0xAA; 64]];
        let mut a = MutationSource::new(7, corpus.clone());
        let mut b = MutationSource::new(7, corpus.clone());
        let xs: Vec<Vec<u8>> = (0..200).map(|_| a.next_input()).collect();
        let ys: Vec<Vec<u8>> = (0..200).map(|_| b.next_input()).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        let mut c = MutationSource::new(8, corpus);
        let zs: Vec<Vec<u8>> = (0..200).map(|_| c.next_input()).collect();
        assert_ne!(xs, zs, "different seed, different stream");
        // An empty corpus still produces (soup-only) inputs.
        let mut soup = MutationSource::new(1, Vec::new());
        for _ in 0..50 {
            let _ = soup.next_input();
        }
    }

    #[test]
    fn memory_budget_settles_within_limit() {
        let budget = MemoryBudget::capture(64 * 1024);
        // Transient symbols: interned, dropped, then collected.
        for i in 0..512 {
            let _ = Symbol::intern(&format!("scenario-budget-transient-{i}"));
        }
        let settlement = budget.settle();
        assert!(settlement.within_budget(), "{settlement:?}");
        settlement.assert_within("scenario budget test");
        assert_eq!(settlement.interned_before, budget.interned_before());
    }

    #[test]
    fn link_cut_compiles_to_a_time_window() {
        let cut = LinkCut { gateway: 1, from_secs: 2, to_secs: 5 };
        assert_eq!(cut.window(), (SimTime::from_secs(2), SimTime::from_secs(5)));
    }
}
