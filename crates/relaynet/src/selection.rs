//! Pluggable path selection: the policy seam between the relay
//! directory and circuit placement.
//!
//! Which relays a circuit crosses determines which relays become
//! bottlenecks — and therefore how much a slow start helps — so
//! selection is an experimental axis, not a hard-wired rule. The seam
//! mirrors [`crate::node::CcFactory`]: scenarios carry a
//! [`SelectionPolicy`] (a shared [`PathSelection`] trait object), the
//! network calls it for every placement, and experiments swap policies
//! without touching protocol code.
//!
//! A policy sees a [`DirectoryView`]: the SoA relay store
//! ([`crate::directory::Directory`] — bandwidth, access delay, liveness
//! columns) **plus live load telemetry** — the number of circuits
//! currently routed through each relay, maintained by
//! [`crate::network::TorNetwork`] as circuits are placed and torn down.
//! Initial placement therefore already feeds back (each circuit sees its
//! predecessors), and churn rebuilds re-select under the load left by
//! the surviving circuits. Dark (non-live) relays weigh zero and are
//! never selected.
//!
//! # Determinism contract
//!
//! A policy may draw randomness **only** from the [`SimRng`] passed to
//! [`PathSelection::select`] (the network's dedicated placement stream);
//! it must be a pure function of `(view, rng state, path_len)`. It must
//! return exactly `path_len` distinct in-range relay indices — the
//! network validates this and panics on a violating policy. See
//! DESIGN.md §9.
//!
//! # Weights are integer-valued
//!
//! [`PathSelection::relay_weight`] must return integer-valued `f64`
//! weights (quantize with `round()`), keeping every draw exact and
//! therefore identical between the linear and Fenwick samplers and
//! between incremental updates and full rebuilds — the contract
//! [`crate::sampler`] documents and asserts.
//!
//! # The selection engine
//!
//! [`PathSelection::select`]'s default implementation rebuilds the
//! weight vector per call — fine at 30 relays, the hot path at 7k.
//! [`SelectionEngine`] is the consensus-scale path the network actually
//! drives: it owns a [`Sampler`] fed *incrementally* by load-ledger and
//! liveness changes (O(log n) per update with the Fenwick tree) and
//! reusable scratch buffers, so a steady-state selection allocates
//! nothing. Pick equivalence with the default implementation is exact
//! (see [`crate::sampler`]) and differentially tested.
//!
//! # Shipped policies
//!
//! | policy | weight of relay `i` | models |
//! |---|---|---|
//! | [`Uniform`] | 1 | unweighted sampling |
//! | [`BandwidthWeighted`] | `bw_i` | Tor's consensus-bandwidth weighting |
//! | [`LatencyAware`] | `round(1 / delay_i²)` | ShorTor-style latency-driven choice |
//! | [`CongestionAware`] | `round(bw_i / (1 + load_i))` | Imani et al.-style congestion avoidance |

use std::sync::Arc;

use simcore::rng::SimRng;
use simcore::time::SimDuration;

use crate::directory::{Directory, RelaySpec};
use crate::sampler::{Sampler, SamplerKind};

/// A selection policy as scenarios carry it: shared, cheaply cloneable,
/// usable both at build time and by the network's churn rebuilds.
pub type SelectionPolicy = Arc<dyn PathSelection>;

/// Every shipped policy, in canonical order — the single source of
/// truth for harnesses ("run each policy") so adding a policy extends
/// every sweep, bench, and differential test at once.
pub fn all_policies() -> [SelectionPolicy; 4] {
    [
        Arc::new(Uniform),
        Arc::new(BandwidthWeighted),
        Arc::new(LatencyAware),
        Arc::new(CongestionAware),
    ]
}

/// What a policy sees when asked to place a circuit: the relay store's
/// columns plus a snapshot of live load. The snapshot is taken at call
/// time — a policy must not assume it stays valid across calls (churn
/// changes it between placements).
#[derive(Clone, Copy, Debug)]
pub struct DirectoryView<'a> {
    directory: &'a Directory,
    load: &'a [u32],
    /// Client-side exclusion column (relays blamed for circuit
    /// timeouts); `None` means nothing is excluded. Orthogonal to the
    /// store's liveness column, which consensus epochs own.
    excluded: Option<&'a [bool]>,
}

impl<'a> DirectoryView<'a> {
    /// Pairs the relay store with its live circuit counts.
    ///
    /// # Panics
    ///
    /// Panics if `load` does not hold one counter per relay.
    pub fn new(directory: &'a Directory, load: &'a [u32]) -> DirectoryView<'a> {
        assert_eq!(
            directory.len(),
            load.len(),
            "one load counter per relay spec"
        );
        DirectoryView {
            directory,
            load,
            excluded: None,
        }
    }

    /// [`DirectoryView::new`] plus a blame-driven exclusion column:
    /// excluded relays weigh zero exactly like dark ones. An all-`false`
    /// column is behaviourally identical to [`DirectoryView::new`], so
    /// fault-free runs stay bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `load` or `excluded` do not hold one entry per relay.
    pub fn with_exclusions(
        directory: &'a Directory,
        load: &'a [u32],
        excluded: &'a [bool],
    ) -> DirectoryView<'a> {
        assert_eq!(
            directory.len(),
            load.len(),
            "one load counter per relay spec"
        );
        assert_eq!(
            directory.len(),
            excluded.len(),
            "one exclusion flag per relay spec"
        );
        DirectoryView {
            directory,
            load,
            excluded: Some(excluded),
        }
    }

    /// Number of relays in the provisioned universe.
    #[inline]
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// Whether the view holds no relays. Always `false` for a
    /// constructed view (directories reject empty relay sets), kept
    /// for the standard `len`/`is_empty` pairing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// One relay's access-link characteristics (materialized from the
    /// SoA columns).
    #[inline]
    pub fn spec(&self, relay: usize) -> RelaySpec {
        self.directory.spec(relay)
    }

    /// One relay's access-link rate, bit/s (column read).
    #[inline]
    pub fn bandwidth_bps(&self, relay: usize) -> u64 {
        self.directory.bandwidths_bps()[relay]
    }

    /// One relay's one-way access delay (column read).
    #[inline]
    pub fn delay(&self, relay: usize) -> SimDuration {
        self.directory.delays()[relay]
    }

    /// Whether `relay` is in the live set (dark relays weigh zero).
    #[inline]
    pub fn is_live(&self, relay: usize) -> bool {
        self.directory.is_live(relay)
    }

    /// Number of live relays (O(1) — maintained by the store).
    #[inline]
    pub fn live_count(&self) -> usize {
        self.directory.live_count()
    }

    /// Whether every provisioned relay is live (the common no-churn
    /// case, enabling the uniform fast path).
    #[inline]
    pub fn all_live(&self) -> bool {
        self.directory.live_count() == self.directory.len()
    }

    /// Whether `relay` carries a blame-driven exclusion.
    #[inline]
    pub fn is_excluded(&self, relay: usize) -> bool {
        self.excluded.is_some_and(|e| e[relay])
    }

    /// Whether `relay` may be selected at all: live and not excluded.
    /// This — not [`DirectoryView::is_live`] — is the gate every weight
    /// computation uses.
    #[inline]
    pub fn is_selectable(&self, relay: usize) -> bool {
        self.directory.is_live(relay) && !self.is_excluded(relay)
    }

    /// Whether every provisioned relay is selectable (live and
    /// unexcluded) — the gate for the uniform Fisher–Yates fast path.
    /// O(1) without an exclusion column; scans it otherwise (selection
    /// is per-placement, not per-cell, so the scan is cold).
    #[inline]
    pub fn all_selectable(&self) -> bool {
        self.all_live() && self.excluded.is_none_or(|e| !e.iter().any(|&x| x))
    }

    /// Circuits currently routed through each relay, indexed by relay id.
    #[inline]
    pub fn loads(&self) -> &'a [u32] {
        self.load
    }

    /// Circuits currently routed through one relay.
    #[inline]
    pub fn load(&self, relay: usize) -> u32 {
        self.load[relay]
    }
}

/// The path-selection seam: maps a directory view to `path_len`
/// distinct relay indices (in path order, client side first).
///
/// A policy is defined by its **per-relay weight**
/// ([`PathSelection::relay_weight`], integer-valued — see the module
/// docs); [`PathSelection::select`]'s default implementation performs
/// the weighted draw, and [`SelectionEngine`] performs the same draw
/// incrementally at consensus scale. A policy whose selection logic is
/// *not* expressible as independent per-relay weights may override
/// `select` and return `false` from [`PathSelection::incremental`] so
/// the engine falls back to calling it.
pub trait PathSelection: std::fmt::Debug + Send + Sync {
    /// Stable identifier used in experiment labels and bench keys.
    fn name(&self) -> &'static str;

    /// The selection weight of one **live** relay (the caller zeroes
    /// dark relays). Must be finite, non-negative, and integer-valued.
    fn relay_weight(&self, view: &DirectoryView<'_>, relay: usize) -> f64;

    /// Whether the weight depends on the live load view. Load-ledger
    /// changes only propagate into a [`SelectionEngine`]'s sampler for
    /// policies that return `true` — the others skip the per-relay
    /// update entirely.
    fn load_sensitive(&self) -> bool {
        false
    }

    /// Whether all live relays weigh the same, enabling the
    /// allocation-free Fisher–Yates fast path (which reproduces
    /// [`SimRng::sample_distinct`] pick for pick).
    fn draws_uniform(&self) -> bool {
        false
    }

    /// Whether [`PathSelection::select`]'s behaviour is fully described
    /// by [`PathSelection::relay_weight`] (true for every shipped
    /// policy). Policies overriding `select` with bespoke logic must
    /// return `false`, making the engine call `select` instead of its
    /// incremental sampler.
    fn incremental(&self) -> bool {
        true
    }

    /// Selects `path_len` **distinct** relay indices. The default
    /// implementation draws by [`PathSelection::relay_weight`] (dark
    /// relays weigh zero), rebuilding the weight vector per call — the
    /// reference behaviour [`SelectionEngine`] reproduces exactly.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `path_len` relays are selectable (live with
    /// positive weight).
    fn select(&self, view: &DirectoryView<'_>, rng: &mut SimRng, path_len: usize) -> Vec<usize> {
        if self.draws_uniform() && view.all_selectable() {
            assert_path_fits(view, path_len);
            return rng.sample_distinct(view.len(), path_len);
        }
        // One fused pass: weights and the selectable count together
        // (historically `assert_path_fits` and `weighted_distinct` each
        // re-scanned the directory).
        let mut selectable = 0usize;
        let weights: Vec<f64> = (0..view.len())
            .map(|i| {
                let w = if view.is_selectable(i) {
                    self.relay_weight(view, i)
                } else {
                    0.0
                };
                if w > 0.0 {
                    selectable += 1;
                }
                w
            })
            .collect();
        assert_selectable(selectable, view.len(), path_len);
        weighted_distinct_precounted(weights, rng, path_len)
    }
}

fn assert_path_fits(view: &DirectoryView<'_>, path_len: usize) {
    assert!(
        path_len <= view.len(),
        "cannot pick {path_len} distinct relays from {}",
        view.len()
    );
}

fn assert_selectable(selectable: usize, relays: usize, path_len: usize) {
    assert!(
        selectable >= path_len,
        "only {selectable} of {relays} relays are selectable (positive weight), \
         but the path needs {path_len} distinct relays"
    );
}

/// Repeated weighted draws without replacement — the legacy linear-scan
/// entry point, kept as the differential oracle for the sampler seam
/// (see [`crate::sampler`]). Validates and counts, then runs the scan.
///
/// Zero-weight entries are legal and simply unselectable: a directory
/// may carry a dead relay (zero consensus bandwidth, a dark epoch
/// departure) without making placement panic. Only when fewer than
/// `path_len` entries carry positive weight is the draw impossible, and
/// *that* panics with a message naming the shortfall.
///
/// # Panics
///
/// Panics if fewer than `path_len` weights are positive, or if any
/// weight is negative or non-finite (a policy bug, not a directory
/// condition).
#[cfg_attr(
    not(test),
    expect(dead_code, reason = "oracle: exercised by the differential tests")
)]
fn weighted_distinct(weights: Vec<f64>, rng: &mut SimRng, path_len: usize) -> Vec<usize> {
    assert!(
        weights.iter().all(|&w| w >= 0.0 && w.is_finite()),
        "selection weights must be finite and non-negative"
    );
    let selectable = weights.iter().filter(|&&w| w > 0.0).count();
    assert_selectable(selectable, weights.len(), path_len);
    weighted_distinct_precounted(weights, rng, path_len)
}

/// The draw core behind [`weighted_distinct`], with validation and the
/// selectable count already done by the caller (the fused weight pass).
/// The total is maintained as a running sum, decremented as picks are
/// zeroed (O(n) per draw for the scan, no O(n) re-summation). For
/// integer-valued weights below 2⁵³ every partial sum is exact, so the
/// draw sequence is bit-identical to the historical recompute-the-sum
/// implementation — pinned by `tests/path_selection.rs` — and to the
/// Fenwick sampler's tree descent.
fn weighted_distinct_precounted(
    mut weights: Vec<f64>,
    rng: &mut SimRng,
    path_len: usize,
) -> Vec<usize> {
    let mut chosen: Vec<usize> = Vec::with_capacity(path_len);
    // Zero weights contribute exactly 0.0, so the total — and therefore
    // every draw — is bit-identical to a directory without them.
    let mut total: f64 = weights.iter().sum();
    for _ in 0..path_len {
        debug_assert!(total > 0.0);
        let mut x = rng.range_f64(0.0, total);
        // `pick` tracks the last positive-weight index visited, so a
        // floating-point overrun of `x` past the (inexact) running total
        // still lands on a selectable relay instead of a zeroed one.
        let mut pick = usize::MAX;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            pick = i;
            if x < w {
                break;
            }
            x -= w;
        }
        debug_assert!(pick != usize::MAX, "some weight must remain positive");
        chosen.push(pick);
        total -= weights[pick];
        weights[pick] = 0.0; // without replacement
    }
    chosen
}

/// The consensus-scale selection path: a [`Sampler`] maintained
/// incrementally plus reusable scratch buffers, owned by the network's
/// placement state. One engine serves one `(policy, directory)` pair;
/// the caller routes load-ledger and liveness changes through
/// [`SelectionEngine::load_changed`] / [`SelectionEngine::relay_changed`]
/// so the sampler's weights always mirror what the policy would compute
/// from scratch.
///
/// Steady-state [`SelectionEngine::select`] calls allocate nothing: the
/// uniform fast path permutes a persistent identity buffer and undoes
/// its swaps (reproducing [`SimRng::sample_distinct`] pick for pick),
/// and the weighted path draws from the sampler into a reusable pick
/// buffer. [`SelectionEngine::scratch_footprint`] exposes the buffer
/// capacities so benches can assert flatness.
#[derive(Debug)]
pub struct SelectionEngine {
    sampler: Sampler,
    load_sensitive: bool,
    uniform_fast: bool,
    incremental: bool,
    /// Persistent `0..n` buffer for the uniform Fisher–Yates fast path.
    identity: Vec<usize>,
    /// Swap log of the current uniform draw, undone after each select.
    swaps: Vec<(usize, usize)>,
    /// Reusable output buffer.
    picks: Vec<usize>,
}

impl SelectionEngine {
    /// Builds the engine for `policy` over the current view, seeding the
    /// sampler with the policy's weights (dark relays weigh zero).
    pub fn new(
        policy: &dyn PathSelection,
        view: &DirectoryView<'_>,
        kind: SamplerKind,
    ) -> SelectionEngine {
        let weights: Vec<f64> = (0..view.len())
            .map(|i| effective_weight(policy, view, i))
            .collect();
        SelectionEngine {
            sampler: Sampler::build(kind, &weights),
            load_sensitive: policy.load_sensitive(),
            uniform_fast: policy.draws_uniform(),
            incremental: policy.incremental(),
            identity: (0..view.len()).collect(),
            swaps: Vec::new(),
            picks: Vec::new(),
        }
    }

    /// The active sampler implementation ("linear" / "fenwick") —
    /// experiment labels and bench keys.
    pub fn sampler_name(&self) -> &'static str {
        self.sampler.name()
    }

    /// Number of relays with positive weight (O(1)).
    pub fn selectable(&self) -> usize {
        self.sampler.selectable()
    }

    /// Re-derives one relay's weight after *any* change (liveness flip,
    /// load change on a load-sensitive policy) and point-updates the
    /// sampler — O(log n) with the Fenwick tree.
    pub fn relay_changed(
        &mut self,
        policy: &dyn PathSelection,
        view: &DirectoryView<'_>,
        relay: usize,
    ) {
        if !self.incremental {
            return;
        }
        self.sampler
            .set(relay, effective_weight(policy, view, relay));
    }

    /// Routes a load-ledger change: only load-sensitive policies have
    /// load in their weight, so everyone else skips the update.
    pub fn load_changed(
        &mut self,
        policy: &dyn PathSelection,
        view: &DirectoryView<'_>,
        relay: usize,
    ) {
        if self.load_sensitive {
            self.relay_changed(policy, view, relay);
        }
    }

    /// Selects `path_len` distinct relay indices — the same picks
    /// `policy.select(view, rng, path_len)` would return (exactly: the
    /// two consume identical randomness), without rebuilding weights or
    /// allocating. The returned slice borrows the engine's pick buffer.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `path_len` relays are selectable.
    pub fn select(
        &mut self,
        policy: &dyn PathSelection,
        view: &DirectoryView<'_>,
        rng: &mut SimRng,
        path_len: usize,
    ) -> &[usize] {
        if !self.incremental {
            // Bespoke-select policy: delegate (allocates, by design).
            let picks = policy.select(view, rng, path_len);
            self.picks.clear();
            self.picks.extend_from_slice(&picks);
            return &self.picks;
        }
        if self.uniform_fast && view.all_selectable() {
            assert_path_fits(view, path_len);
            // `SimRng::sample_distinct` without its O(n) allocation:
            // the same `range_usize(i, n)` swap sequence on the
            // persistent identity buffer, undone afterwards (a swap is
            // its own inverse, so reversing the log restores 0..n).
            let n = view.len();
            self.picks.clear();
            for i in 0..path_len {
                let j = rng.range_usize(i, n);
                self.identity.swap(i, j);
                self.swaps.push((i, j));
            }
            self.picks.extend_from_slice(&self.identity[..path_len]);
            while let Some((i, j)) = self.swaps.pop() {
                self.identity.swap(i, j);
            }
        } else {
            assert_selectable(self.sampler.selectable(), view.len(), path_len);
            self.sampler.draw_distinct(rng, path_len, &mut self.picks);
        }
        &self.picks
    }

    /// Scratch-buffer capacities `(picks, swaps, sampler undo)` — the
    /// flat-allocation telemetry the selection bench asserts on: after
    /// warm-up these must not grow, or the "zero-alloc fast path" has
    /// silently regressed to per-call allocation.
    pub fn scratch_footprint(&self) -> (usize, usize, usize) {
        (
            self.picks.capacity(),
            self.swaps.capacity(),
            self.sampler.scratch_capacity(),
        )
    }
}

/// The weight the sampler must carry for `relay` right now: the
/// policy's weight for selectable relays, zero for dark or excluded
/// ones.
fn effective_weight(policy: &dyn PathSelection, view: &DirectoryView<'_>, relay: usize) -> f64 {
    if view.is_selectable(relay) {
        policy.relay_weight(view, relay)
    } else {
        0.0
    }
}

/// Every relay is equally likely — the paper's default placement.
#[derive(Clone, Copy, Debug, Default)]
pub struct Uniform;

impl PathSelection for Uniform {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn relay_weight(&self, _view: &DirectoryView<'_>, _relay: usize) -> f64 {
        1.0
    }

    fn draws_uniform(&self) -> bool {
        true
    }
}

/// Probability proportional to access bandwidth — Tor's consensus-
/// bandwidth weighting, the baseline the paper's star evaluation models.
#[derive(Clone, Copy, Debug, Default)]
pub struct BandwidthWeighted;

impl PathSelection for BandwidthWeighted {
    fn name(&self) -> &'static str {
        "bandwidth"
    }

    fn relay_weight(&self, view: &DirectoryView<'_>, relay: usize) -> f64 {
        // Bit/s rates are integers below 2^53: already quantized.
        view.bandwidth_bps(relay) as f64
    }
}

/// Prefer low access-delay relays (cf. ShorTor's latency-driven routing
/// in PAPERS.md): weight `round(1 / delay²)`. The inverse-square
/// emphasis makes the preference decisive over the narrow delay ranges
/// directories generate, while never excluding a relay outright (the
/// delay floor keeps the rounded weight ≥ 1 for every sub-second
/// delay).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyAware;

/// Floor applied to access delays before inverting, so a zero-delay
/// test relay cannot produce an infinite weight (cap: 1e12, far below
/// the sampler's 2⁵³ exactness bound even at 7k relays).
const MIN_DELAY_S: f64 = 1e-6;

impl PathSelection for LatencyAware {
    fn name(&self) -> &'static str {
        "latency"
    }

    fn relay_weight(&self, view: &DirectoryView<'_>, relay: usize) -> f64 {
        let d = view.delay(relay).as_secs_f64().max(MIN_DELAY_S);
        (1.0 / (d * d)).round()
    }
}

/// Penalize relays by active-circuit load per unit bandwidth (cf. Imani
/// et al.'s congestion-aware relay choice in PAPERS.md): weight
/// `round(bw / (1 + load))`, i.e. bandwidth-proportional selection
/// discounted by the circuits already routed through the relay. With
/// zero load everywhere this intentionally reduces to
/// [`BandwidthWeighted`] (the rounding is exact at load 0); load
/// feedback is what differentiates it mid-experiment.
#[derive(Clone, Copy, Debug, Default)]
pub struct CongestionAware;

impl PathSelection for CongestionAware {
    fn name(&self) -> &'static str {
        "congestion"
    }

    fn relay_weight(&self, view: &DirectoryView<'_>, relay: usize) -> f64 {
        (view.bandwidth_bps(relay) as f64 / (1.0 + f64::from(view.load(relay)))).round()
    }

    fn load_sensitive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::DirectoryConfig;
    use netsim::bandwidth::Bandwidth;

    fn rng() -> SimRng {
        SimRng::seed_from(42)
    }

    fn spec(mbps: u64, delay_ms: u64) -> RelaySpec {
        RelaySpec {
            bandwidth: Bandwidth::from_mbps(mbps),
            delay: SimDuration::from_millis(delay_ms),
        }
    }

    fn dir_of(specs: Vec<RelaySpec>) -> Directory {
        Directory::from_specs(specs)
    }

    #[test]
    fn every_policy_returns_distinct_in_range_indices() {
        let dir = Directory::generate(&DirectoryConfig::default(), &rng());
        let load = vec![0u32; dir.len()];
        for policy in all_policies() {
            let mut r = rng();
            for _ in 0..100 {
                let view = dir.view(&load);
                let p = policy.select(&view, &mut r, 3);
                assert_eq!(p.len(), 3, "{}", policy.name());
                let mut q = p.clone();
                q.sort_unstable();
                q.dedup();
                assert_eq!(q.len(), 3, "{} repeated a relay", policy.name());
                assert!(p.iter().all(|&i| i < dir.len()), "{}", policy.name());
            }
        }
    }

    #[test]
    fn uniform_matches_raw_distinct_sampling() {
        let dir = Directory::generate(&DirectoryConfig::default(), &rng());
        let load = vec![0u32; dir.len()];
        let mut a = rng();
        let mut b = rng();
        for _ in 0..50 {
            let view = dir.view(&load);
            assert_eq!(
                Uniform.select(&view, &mut a, 3),
                b.sample_distinct(dir.len(), 3)
            );
        }
    }

    #[test]
    fn bandwidth_weighted_prefers_fat_relays() {
        // One relay 1000× the bandwidth of the others: it should appear
        // in nearly every 1-relay path.
        let mut specs = vec![spec(1, 10); 10];
        specs[4] = spec(1000, 10);
        let dir = dir_of(specs);
        let load = vec![0u32; dir.len()];
        let mut r = rng();
        let hits = (0..200)
            .filter(|_| {
                let view = dir.view(&load);
                BandwidthWeighted.select(&view, &mut r, 1)[0] == 4
            })
            .count();
        assert!(hits > 150, "fat relay picked only {hits}/200 times");
    }

    #[test]
    fn latency_aware_prefers_near_relays() {
        // One relay at 1 ms among relays at 30 ms: the inverse-square
        // weight gives it ~99% of the mass.
        let mut specs = vec![spec(50, 30); 10];
        specs[7] = spec(50, 1);
        let dir = dir_of(specs);
        let load = vec![0u32; dir.len()];
        let mut r = rng();
        let hits = (0..200)
            .filter(|_| {
                let view = dir.view(&load);
                LatencyAware.select(&view, &mut r, 1)[0] == 7
            })
            .count();
        assert!(hits > 150, "near relay picked only {hits}/200 times");
    }

    #[test]
    fn latency_aware_tolerates_zero_delay() {
        let dir = dir_of(vec![
            RelaySpec {
                bandwidth: Bandwidth::from_mbps(10),
                delay: SimDuration::ZERO,
            };
            4
        ]);
        let load = vec![0u32; 4];
        let mut r = rng();
        let view = dir.view(&load);
        let p = LatencyAware.select(&view, &mut r, 2);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn congestion_aware_reduces_to_bandwidth_at_zero_load() {
        let dir = Directory::generate(&DirectoryConfig::default(), &rng());
        let load = vec![0u32; dir.len()];
        let mut a = rng();
        let mut b = rng();
        for _ in 0..50 {
            let view = dir.view(&load);
            assert_eq!(
                CongestionAware.select(&view, &mut a, 3),
                BandwidthWeighted.select(&view, &mut b, 3),
                "zero load must reproduce the Tor baseline"
            );
        }
    }

    #[test]
    fn congestion_aware_avoids_loaded_relays() {
        // Equal bandwidths, but relay 2 already carries 50 circuits: its
        // weight collapses to ~2% of an idle relay's.
        let dir = dir_of(vec![spec(20, 5); 8]);
        let mut load = vec![0u32; 8];
        load[2] = 50;
        let mut r = rng();
        let hits = (0..400)
            .filter(|_| {
                let view = dir.view(&load);
                CongestionAware.select(&view, &mut r, 1)[0] == 2
            })
            .count();
        // Idle expectation would be 50; the penalty pushes it near 1.
        assert!(hits < 15, "loaded relay still picked {hits}/400 times");
    }

    #[test]
    fn congestion_aware_trades_bandwidth_against_load() {
        // A 100 Mbit/s relay carrying 9 circuits weighs 10 Mbit/s
        // effective — exactly an idle 10 Mbit/s relay. A 3× idle relay
        // must then dominate both.
        let dir = dir_of(vec![spec(100, 5), spec(30, 5), spec(10, 5)]);
        let load = vec![9u32, 0, 0];
        let mut r = rng();
        let mut counts = [0usize; 3];
        for _ in 0..600 {
            let view = dir.view(&load);
            counts[CongestionAware.select(&view, &mut r, 1)[0]] += 1;
        }
        assert!(
            counts[1] > counts[0] && counts[1] > counts[2],
            "30 Mbit/s idle relay must dominate: {counts:?}"
        );
    }

    #[test]
    fn weighted_draw_sequence_matches_naive_resummation() {
        // The running-total optimization must reproduce the historical
        // recompute-the-sum implementation draw for draw (exact, because
        // bandwidth weights are integers below 2^53).
        fn naive(weights: &mut [f64], rng: &mut SimRng, k: usize) -> Vec<usize> {
            let mut chosen = Vec::with_capacity(k);
            for _ in 0..k {
                let total: f64 = weights.iter().sum();
                let mut x = rng.range_f64(0.0, total);
                let mut pick = weights.len() - 1;
                for (i, &w) in weights.iter().enumerate() {
                    if w > 0.0 && x < w {
                        pick = i;
                        break;
                    }
                    x -= w;
                }
                chosen.push(pick);
                weights[pick] = 0.0;
            }
            chosen
        }
        for seed in [1u64, 9, 33, 71] {
            let dir = Directory::generate(
                &DirectoryConfig {
                    relays: 40,
                    ..DirectoryConfig::default()
                },
                &SimRng::seed_from(seed),
            );
            let weights: Vec<f64> = dir.bandwidths_bps().iter().map(|&bps| bps as f64).collect();
            let mut a = SimRng::seed_from(seed ^ 0xABCD);
            let mut b = a.clone();
            for _ in 0..200 {
                let fast = weighted_distinct(weights.clone(), &mut a, 5);
                let slow = naive(&mut weights.clone(), &mut b, 5);
                assert_eq!(fast, slow, "seed {seed}: draw sequences diverged");
            }
        }
    }

    #[test]
    fn zero_weight_relays_are_skipped_not_fatal() {
        // Regression: a weight vector containing dead relays (zero
        // weight — a zero-consensus-bandwidth entry, or any future
        // policy that excludes relays outright) used to trip
        // `weighted_distinct`'s everything-positive debug assertion on
        // entry. Dead entries must instead be silently unselectable.
        let weights = vec![5.0e6, 0.0, 3.0e6, 0.0, 2.0e6, 1.0e6];
        let mut r = rng();
        for _ in 0..300 {
            let picks = weighted_distinct(weights.clone(), &mut r, 3);
            assert_eq!(picks.len(), 3);
            assert!(
                picks.iter().all(|&i| weights[i] > 0.0),
                "picked a zero-weight relay: {picks:?}"
            );
            let mut dedup = picks.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "repeated a relay: {picks:?}");
        }
    }

    #[test]
    fn zero_weights_leave_the_draw_sequence_unchanged() {
        // Dead relays contribute exactly 0.0 to every partial sum, so a
        // directory with them interleaved must reproduce the dense
        // directory's draw sequence bit for bit (with indices remapped).
        let dense = vec![5.0e6, 3.0e6, 2.0e6, 7.0e6];
        let sparse = vec![5.0e6, 0.0, 3.0e6, 2.0e6, 0.0, 7.0e6];
        // sparse index -> dense index for the positive entries.
        let remap = [0usize, usize::MAX, 1, 2, usize::MAX, 3];
        let mut a = rng();
        let mut b = rng();
        for _ in 0..100 {
            let d = weighted_distinct(dense.clone(), &mut a, 2);
            let s = weighted_distinct(sparse.clone(), &mut b, 2);
            let s_mapped: Vec<usize> = s.iter().map(|&i| remap[i]).collect();
            assert_eq!(d, s_mapped, "zero weights perturbed the draws");
        }
    }

    #[test]
    fn dark_relays_are_never_selected() {
        // Half the directory goes dark: every policy must route around
        // it — including Uniform, whose fast path only covers all-live.
        let mut dir = dir_of(vec![spec(20, 5); 10]);
        for r in [1usize, 3, 5, 7, 9] {
            dir.set_live(r, false);
        }
        let load = vec![0u32; 10];
        for policy in all_policies() {
            let mut r = rng();
            for _ in 0..50 {
                let view = dir.view(&load);
                let picks = policy.select(&view, &mut r, 3);
                assert!(
                    picks.iter().all(|&i| dir.is_live(i)),
                    "{} picked a dark relay: {picks:?}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn excluded_relays_are_never_selected() {
        // Blame-driven exclusions must gate every policy — including
        // Uniform, whose fast path must fall back to the weighted draw.
        let dir = dir_of(vec![spec(20, 5); 10]);
        let load = vec![0u32; 10];
        let mut excluded = vec![false; 10];
        for r in [2usize, 4, 6] {
            excluded[r] = true;
        }
        for policy in all_policies() {
            let mut r = rng();
            for _ in 0..50 {
                let view = DirectoryView::with_exclusions(&dir, &load, &excluded);
                let picks = policy.select(&view, &mut r, 3);
                assert!(
                    picks.iter().all(|&i| !excluded[i]),
                    "{} picked an excluded relay: {picks:?}",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn all_false_exclusion_column_is_bit_identical() {
        // The fault-path seam must be free when nothing is excluded: an
        // all-false column consumes identical randomness and returns
        // identical picks to a plain view.
        let dir = Directory::generate(&DirectoryConfig::default(), &rng());
        let load = vec![0u32; dir.len()];
        let excluded = vec![false; dir.len()];
        for policy in all_policies() {
            let mut a = rng();
            let mut b = rng();
            for _ in 0..50 {
                let plain = policy.select(&DirectoryView::new(&dir, &load), &mut a, 3);
                let gated = policy.select(
                    &DirectoryView::with_exclusions(&dir, &load, &excluded),
                    &mut b,
                    3,
                );
                assert_eq!(plain, gated, "{}", policy.name());
            }
        }
    }

    #[test]
    fn engine_honours_exclusions_like_the_policy() {
        // The incremental engine must track exclusion flips exactly as
        // the per-call default implementation sees them.
        for kind in [SamplerKind::Linear, SamplerKind::Fenwick] {
            for policy in all_policies() {
                let dir = dir_of(vec![spec(20, 5); 12]);
                let load = vec![0u32; 12];
                let mut excluded = vec![false; 12];
                let mut engine = SelectionEngine::new(
                    policy.as_ref(),
                    &DirectoryView::with_exclusions(&dir, &load, &excluded),
                    kind,
                );
                let mut a = SimRng::seed_from(3);
                let mut b = a.clone();
                for round in 0..24 {
                    if round % 4 == 1 && round / 4 < 12 {
                        let r = round / 4 * 3 % 12;
                        excluded[r] = true;
                        engine.relay_changed(
                            policy.as_ref(),
                            &DirectoryView::with_exclusions(&dir, &load, &excluded),
                            r,
                        );
                    }
                    let view = DirectoryView::with_exclusions(&dir, &load, &excluded);
                    let want = policy.select(&view, &mut a, 3);
                    let got = engine.select(policy.as_ref(), &view, &mut b, 3);
                    assert_eq!(
                        got,
                        want.as_slice(),
                        "{} {kind:?} round {round}",
                        policy.name()
                    );
                    assert!(got.iter().all(|&i| !excluded[i]));
                }
            }
        }
    }

    #[test]
    fn engine_reproduces_policy_selects() {
        // The incremental engine and the per-call default implementation
        // must consume identical randomness and return identical picks,
        // for every shipped policy and both sampler implementations —
        // including under load changes and liveness flips between
        // selects.
        for kind in [SamplerKind::Linear, SamplerKind::Fenwick] {
            for policy in all_policies() {
                let dir_rng = SimRng::seed_from(7);
                let mut dir = Directory::generate(
                    &DirectoryConfig {
                        relays: 25,
                        ..DirectoryConfig::default()
                    },
                    &dir_rng,
                );
                let mut load = vec![0u32; dir.len()];
                let mut engine = SelectionEngine::new(policy.as_ref(), &dir.view(&load), kind);
                let mut a = SimRng::seed_from(99);
                let mut b = a.clone();
                let mut mutate = SimRng::seed_from(5);
                for round in 0..60 {
                    let view = dir.view(&load);
                    let want = policy.select(&view, &mut a, 3);
                    let got = engine.select(policy.as_ref(), &view, &mut b, 3);
                    assert_eq!(
                        got,
                        want.as_slice(),
                        "{} {:?} round {round}",
                        policy.name(),
                        kind
                    );
                    // Mutate load and liveness like the network would,
                    // keeping the engine in the loop.
                    let r = mutate.range_usize(0, dir.len());
                    load[r] = (load[r] + 1) % 7;
                    engine.load_changed(policy.as_ref(), &dir.view(&load), r);
                    if round % 10 == 9 {
                        let d = mutate.range_usize(0, dir.len());
                        let next = !dir.is_live(d);
                        dir.set_live(d, next);
                        engine.relay_changed(policy.as_ref(), &dir.view(&load), d);
                    }
                }
            }
        }
    }

    #[test]
    fn engine_scratch_stays_flat() {
        let dir = Directory::generate(
            &DirectoryConfig {
                relays: 100,
                ..DirectoryConfig::default()
            },
            &rng(),
        );
        let load = vec![0u32; dir.len()];
        for policy in all_policies() {
            let mut engine =
                SelectionEngine::new(policy.as_ref(), &dir.view(&load), SamplerKind::Fenwick);
            let mut r = rng();
            // Warm up, then assert capacities never move again.
            for _ in 0..5 {
                engine.select(policy.as_ref(), &dir.view(&load), &mut r, 3);
            }
            let warm = engine.scratch_footprint();
            for _ in 0..200 {
                engine.select(policy.as_ref(), &dir.view(&load), &mut r, 3);
            }
            assert_eq!(
                engine.scratch_footprint(),
                warm,
                "{}: scratch buffers must stop growing after warm-up",
                policy.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "selectable (positive weight)")]
    fn too_few_selectable_relays_panics_clearly() {
        // Three relays, two of them dead: a 3-relay path is impossible
        // and must fail loudly with the shortfall named.
        let _ = weighted_distinct(vec![0.0, 4.0e6, 0.0], &mut rng(), 3);
    }

    #[test]
    #[should_panic(expected = "distinct relays")]
    fn path_longer_than_directory_panics() {
        let dir = dir_of(vec![spec(1, 0)]);
        let load = vec![0u32];
        let view = dir.view(&load);
        let _ = Uniform.select(&view, &mut rng(), 2);
    }

    #[test]
    #[should_panic(expected = "one load counter per relay")]
    fn mismatched_load_slice_rejected() {
        let dir = dir_of(vec![spec(1, 1); 3]);
        let load = vec![0u32; 2];
        let _ = DirectoryView::new(&dir, &load);
    }
}
