//! Onion-layering stand-in.
//!
//! # ⚠ Not cryptography
//!
//! Real Tor wraps relay payloads in per-hop AES-CTR layers with SHA-1
//! running digests. The CircuitStart experiments measure **congestion
//! dynamics**; the only properties of the onion layers that matter there
//! are (a) payload size is preserved by each layer and (b) each hop applies
//! or removes exactly one layer. This module reproduces that *structure*
//! with a keyed xorshift keystream — deterministic, size-preserving,
//! trivially invertible, and completely insecure. See DESIGN.md §2 for the
//! substitution rationale.
//!
//! # One pass per hop
//!
//! A layer's keystream is xorshift64*, one word per 8 payload bytes (the
//! byte tail takes the low bytes of one more word), started from the
//! layer key and the layer's per-direction cell counter. The digest is
//! [`payload_digest`] over the plaintext. Both definitions are fixed; one
//! kernel evaluates them, and every transformation of a payload is a
//! single pass of it over the payload's words:
//!
//! * [`RelayCrypt::strip_forward`] (and each layer tried by
//!   [`OnionRoute::unwrap_inbound`]) XORs the keystream and folds the
//!   resulting plaintext word into the digest in the same iteration. The
//!   keystream and the digest are independent serial chains, so they
//!   overlap instead of running back to back.
//! * [`OnionRoute::wrap_for_hop`] runs all `hop + 1` keystreams
//!   interleaved, in groups of at most four, and **seals** the cell: the
//!   first group's pass also folds the plaintext into the digest and
//!   stores it in `cell.digest`. The wrap owns the digest, so a
//!   client-originated cell needs none at construction
//!   ([`RelayCell::unsealed`]).
//! * [`RelayCrypt::add_backward`] runs the keystream alone.
//!
//! The root package's `proptest_codec` suite checks the kernel byte for
//! byte against a byte-at-a-time oracle.

use crate::cell::RelayCell;

/// A 64-bit layer key (stand-in for negotiated key material).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LayerKey(pub u64);

impl LayerKey {
    /// Derives a key from a handshake blob, mimicking key agreement: both
    /// ends of a CREATE/CREATED exchange derive the same key.
    pub fn from_handshake(handshake: &[u8]) -> LayerKey {
        let mut k: u64 = 0x2545_F491_4F6C_DD1D;
        for &b in handshake {
            k ^= u64::from(b);
            k = k.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        }
        // Avoid the degenerate all-zero xorshift state.
        LayerKey(if k == 0 { 1 } else { k })
    }
}

/// Most keystreams one kernel pass carries in registers; longer circuits
/// are wrapped in groups of at most this many layers.
const LANES: usize = 4;

/// Kernel digest modes: fold nothing into the digest…
const FOLD_NONE: u8 = 0;
/// …fold the words as they were before the XOR (a wrap: plaintext in)…
const FOLD_INPUT: u8 = 1;
/// …or the words after the XOR (a strip: plaintext out).
const FOLD_OUTPUT: u8 = 2;

/// The xorshift64* start state of the layer keyed `key` for the cell
/// numbered `*counter` in its direction; consumes that number.
fn layer_start(key: LayerKey, counter: &mut u64) -> u64 {
    let state = key.0 ^ counter.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    *counter += 1;
    // Avoid the degenerate all-zero xorshift state.
    if state == 0 {
        0x9E37_79B9_7F4A_7C15
    } else {
        state
    }
}

/// Advances one xorshift64* state and returns its next keystream word.
#[inline(always)]
fn keystream_next(state: &mut u64) -> u64 {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    state.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Starting value of the digest chain.
const DIGEST_SEED: u64 = 0x811c_9dc5_2545_f491;

/// Folds one 8-byte payload word into the digest chain.
#[inline(always)]
fn digest_fold(h: u64, word: u64) -> u64 {
    (h ^ word)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(23)
}

/// Closes the digest chain with the zero-padded tail word and the length.
#[inline(always)]
fn digest_finish(h: u64, tail: u64, len: usize) -> u32 {
    ((h ^ tail ^ len as u64).wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32
}

/// The kernel: XORs the `N` keystreams starting at `starts` over `data`
/// in one pass and returns the digest of the side `FOLD` names (for
/// [`FOLD_NONE`] the return value is meaningless).
fn keystream_pass<const N: usize, const FOLD: u8>(starts: [u64; N], data: &mut [u8]) -> u32 {
    let len = data.len();
    let mut states = starts;
    let mut keystream = || states.iter_mut().fold(0, |ks, s| ks ^ keystream_next(s));
    let plain = |input: u64, output: u64| if FOLD == FOLD_INPUT { input } else { output };
    let mut h = DIGEST_SEED;
    let mut chunks = data.chunks_exact_mut(8);
    for chunk in &mut chunks {
        let buf: &mut [u8; 8] = chunk.try_into().expect("exact chunk");
        let input = u64::from_le_bytes(*buf);
        let output = input ^ keystream();
        *buf = output.to_le_bytes();
        if FOLD != FOLD_NONE {
            h = digest_fold(h, plain(input, output));
        }
    }
    let tail = chunks.into_remainder();
    if tail.is_empty() {
        return digest_finish(h, 0, len);
    }
    let mut word = [0u8; 8];
    word[..tail.len()].copy_from_slice(tail);
    let input = u64::from_le_bytes(word);
    let output = input ^ (keystream() & (u64::MAX >> (64 - 8 * tail.len())));
    tail.copy_from_slice(&output.to_le_bytes()[..tail.len()]);
    digest_finish(h, plain(input, output), len)
}

/// Runs the kernel over one group of 1..=[`LANES`] layer start states.
#[inline(always)]
fn keystream_group<const FOLD: u8>(starts: &[u64], data: &mut [u8]) -> u32 {
    match *starts {
        [a] => keystream_pass::<1, FOLD>([a], data),
        [a, b] => keystream_pass::<2, FOLD>([a, b], data),
        [a, b, c] => keystream_pass::<3, FOLD>([a, b, c], data),
        [a, b, c, d] => keystream_pass::<4, FOLD>([a, b, c, d], data),
        _ => unreachable!("a keystream group holds 1..=LANES layers"),
    }
}

/// Client-side onion state with **per-layer cell counters**, mirroring how
/// Tor's stateful AES-CTR streams stay synchronized when cells leave the
/// circuit early ("leaky pipe"): a cell recognized at hop `k` advances only
/// the counters of layers `0..=k`, because hops beyond `k` never see it.
///
/// Relays keep a single per-direction counter (they process every cell
/// that traverses them exactly once), so both sides stay in lockstep.
#[derive(Clone, Debug, Default)]
pub struct OnionRoute {
    keys: Vec<LayerKey>,
    /// Client-side counter per layer, forward direction.
    fwd_counters: Vec<u64>,
    /// Client-side counter per layer, backward direction.
    bwd_counters: Vec<u64>,
}

impl OnionRoute {
    /// Creates an empty route (no hops negotiated yet).
    pub fn new() -> OnionRoute {
        OnionRoute::default()
    }

    /// Appends the layer shared with the newly added hop.
    pub fn push_layer(&mut self, key: LayerKey) {
        self.keys.push(key);
        self.fwd_counters.push(0);
        self.bwd_counters.push(0);
    }

    /// Number of negotiated hops.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` before the first hop is negotiated.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Seals an outbound relay cell and wraps it so that it is recognized
    /// at layer `hop` (0 = first relay): one pass stores the plaintext
    /// digest in `cell.digest` and XORs the keystreams of layers
    /// `0..=hop`, whose counters advance.
    ///
    /// # Panics
    ///
    /// Panics if `hop` is out of range.
    pub fn wrap_for_hop(&mut self, hop: usize, cell: &mut RelayCell) {
        assert!(
            hop < self.keys.len(),
            "wrap_for_hop: hop {hop} out of range"
        );
        let mut starts = [0u64; LANES];
        for lo in (0..=hop).step_by(LANES) {
            let layers = lo..(lo + LANES).min(hop + 1);
            let n = layers.len();
            for (start, i) in starts.iter_mut().zip(layers) {
                *start = layer_start(self.keys[i], &mut self.fwd_counters[i]);
            }
            if lo == 0 {
                cell.digest = keystream_group::<FOLD_INPUT>(&starts[..n], &mut cell.data);
            } else {
                keystream_group::<FOLD_NONE>(&starts[..n], &mut cell.data);
            }
        }
    }

    /// Unwraps an inbound (backward) relay cell layer by layer until the
    /// digest verifies, returning the hop it originated from. Counters of
    /// every attempted layer advance, exactly like Tor's stream ciphers.
    ///
    /// Returns `None` (after consuming one count on every layer) if no
    /// layer produces a valid digest — a corrupt or misrouted cell.
    pub fn unwrap_inbound(&mut self, cell: &mut RelayCell) -> Option<usize> {
        for i in 0..self.keys.len() {
            let start = layer_start(self.keys[i], &mut self.bwd_counters[i]);
            if keystream_pass::<1, FOLD_OUTPUT>([start], &mut cell.data) == cell.digest {
                return Some(i);
            }
        }
        None
    }
}

/// Relay-side cipher state for one circuit: one layer key and one counter
/// per direction.
#[derive(Clone, Debug)]
pub struct RelayCrypt {
    key: LayerKey,
    fwd_counter: u64,
    bwd_counter: u64,
}

impl RelayCrypt {
    /// Creates relay-side state from the hop's key.
    pub fn new(key: LayerKey) -> RelayCrypt {
        RelayCrypt {
            key,
            fwd_counter: 0,
            bwd_counter: 0,
        }
    }

    /// Strips this relay's layer from a forward cell (client → exit) and
    /// reports whether the cell is now *recognized* (digest valid ⇒ this
    /// relay is the target and must consume it), in one pass.
    pub fn strip_forward(&mut self, cell: &mut RelayCell) -> bool {
        let start = layer_start(self.key, &mut self.fwd_counter);
        keystream_pass::<1, FOLD_OUTPUT>([start], &mut cell.data) == cell.digest
    }

    /// Adds this relay's layer to a backward cell (toward the client) —
    /// used both for cells it forwards and for cells it originates.
    pub fn add_backward(&mut self, cell: &mut RelayCell) {
        let start = layer_start(self.key, &mut self.bwd_counter);
        keystream_pass::<1, FOLD_NONE>([start], &mut cell.data);
    }
}

/// Payload digest — a keyed multiply-rotate mix over 8-byte words.
///
/// Stands in for Tor's running SHA-1 "recognized" digest: it lets the
/// recognizing hop detect payload corruption in tests, nothing more — so
/// it is built for throughput (one multiply per 8 bytes), not security.
/// The onion kernel folds the same chain inside its keystream pass.
pub fn payload_digest(data: &[u8]) -> u32 {
    let mut h = DIGEST_SEED;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("exact chunk"));
        h = digest_fold(h, word);
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    digest_finish(h, u64::from_le_bytes(tail), data.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::StreamId;

    #[test]
    fn digest_distinguishes_payloads() {
        assert_ne!(payload_digest(b"hello"), payload_digest(b"hellp"));
        // Length is mixed in, so a zero-padded tail cannot collide with a
        // shorter payload, and single-byte flips in any word position are
        // detected.
        assert_ne!(payload_digest(b""), payload_digest(&[0]));
        assert_ne!(payload_digest(&[0; 8]), payload_digest(&[0; 16]));
        let mut long = [7u8; 64];
        let base = payload_digest(&long);
        for i in 0..64 {
            long[i] ^= 0x80;
            assert_ne!(payload_digest(&long), base, "flip at {i} undetected");
            long[i] ^= 0x80;
        }
    }

    #[test]
    fn key_from_handshake_is_deterministic_and_sensitive() {
        let a = LayerKey::from_handshake(&[1, 2, 3]);
        let b = LayerKey::from_handshake(&[1, 2, 3]);
        let c = LayerKey::from_handshake(&[1, 2, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a.0, 0);
    }

    /// One fresh relay's backward layer: the keystream for cell 0.
    fn layer0(key: LayerKey, data: &mut Vec<u8>) {
        let mut cell = RelayCell::data(StreamId(1), std::mem::take(data));
        RelayCrypt::new(key).add_backward(&mut cell);
        *data = cell.data;
    }

    #[test]
    fn layer_is_involutive() {
        let original: Vec<u8> = (0..=255).collect();
        let mut data = original.clone();
        layer0(LayerKey(0xDEADBEEF), &mut data);
        assert_ne!(data, original, "keystream must change the data");
        layer0(LayerKey(0xDEADBEEF), &mut data);
        assert_eq!(data, original, "applying twice must restore");
    }

    #[test]
    fn different_counters_differ() {
        let mut relay = RelayCrypt::new(LayerKey(7));
        let mut a = RelayCell::data(StreamId(1), vec![0u8; 64]);
        let mut b = a.clone();
        relay.add_backward(&mut a);
        relay.add_backward(&mut b);
        assert_ne!(a.data, b.data);
    }

    #[test]
    fn zero_key_zero_counter_still_encrypts() {
        // Engineered degenerate case: state must not collapse to zero.
        let mut data = vec![0u8; 32];
        layer0(LayerKey(0), &mut data);
        assert_ne!(data, vec![0u8; 32]);
    }

    /// Builds a matched client route + relay states for `n` hops.
    fn route_of(n: usize) -> (OnionRoute, Vec<RelayCrypt>) {
        let mut route = OnionRoute::new();
        let mut relays = Vec::new();
        for i in 0..n {
            let key = LayerKey::from_handshake(&[i as u8, 0xAA, 7]);
            route.push_layer(key);
            relays.push(RelayCrypt::new(key));
        }
        (route, relays)
    }

    #[test]
    fn onion_route_full_path_recognition() {
        let (mut route, mut relays) = route_of(3);
        let mut cell = RelayCell::data(StreamId(1), b"to the exit".to_vec());
        route.wrap_for_hop(2, &mut cell);
        assert!(
            !relays[0].strip_forward(&mut cell),
            "guard must not recognize"
        );
        assert!(
            !relays[1].strip_forward(&mut cell),
            "middle must not recognize"
        );
        assert!(relays[2].strip_forward(&mut cell), "exit recognizes");
        assert_eq!(cell.data, b"to the exit");
    }

    #[test]
    fn leaky_pipe_counters_stay_in_sync() {
        // Cell 0 targets hop 0 (like an EXTEND), cell 1 targets hop 2.
        // Hop 2's counter must not advance for cell 0.
        let (mut route, mut relays) = route_of(3);

        let mut early = RelayCell::data(StreamId(0), b"extend".to_vec());
        route.wrap_for_hop(0, &mut early);
        assert!(relays[0].strip_forward(&mut early), "hop 0 consumes cell 0");

        let mut data = RelayCell::data(StreamId(1), b"payload".to_vec());
        route.wrap_for_hop(2, &mut data);
        assert!(!relays[0].strip_forward(&mut data));
        assert!(!relays[1].strip_forward(&mut data));
        assert!(relays[2].strip_forward(&mut data), "hop 2 still in sync");
        assert_eq!(data.data, b"payload");
    }

    #[test]
    fn backward_origination_from_any_hop() {
        let (mut route, mut relays) = route_of(3);
        // Hop 1 originates a backward cell (e.g. EXTENDED); hop 0 adds its
        // layer in transit; the client unwraps and learns the origin.
        let mut cell = RelayCell::data(StreamId(0), b"extended".to_vec());
        relays[1].add_backward(&mut cell);
        relays[0].add_backward(&mut cell);
        let origin = route.unwrap_inbound(&mut cell);
        assert_eq!(origin, Some(1));
        assert_eq!(cell.data, b"extended");

        // Next backward cell from the exit: all three layers.
        let mut cell2 = RelayCell::data(StreamId(1), b"connected".to_vec());
        relays[2].add_backward(&mut cell2);
        relays[1].add_backward(&mut cell2);
        relays[0].add_backward(&mut cell2);
        assert_eq!(route.unwrap_inbound(&mut cell2), Some(2));
        assert_eq!(cell2.data, b"connected");
    }

    #[test]
    fn unwrap_of_garbage_returns_none() {
        let (mut route, _) = route_of(2);
        let mut cell = RelayCell {
            cmd: crate::cell::RelayCommand::Data,
            stream: StreamId(1),
            digest: 0xBAD,
            data: b"garbage".to_vec(),
        };
        assert_eq!(route.unwrap_inbound(&mut cell), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn wrap_for_unknown_hop_panics() {
        let (mut route, _) = route_of(1);
        let mut cell = RelayCell::data(StreamId(1), vec![]);
        route.wrap_for_hop(1, &mut cell);
    }

    #[test]
    fn many_cells_stay_in_sync_under_mixed_targets() {
        let (mut route, mut relays) = route_of(3);
        // Deterministic pseudo-random interleaving of targets.
        let mut x = 7u64;
        for round in 0..200u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let hop = (x % 3) as usize;
            let payload = round.to_be_bytes().to_vec();
            let mut cell = RelayCell::data(StreamId(1), payload.clone());
            route.wrap_for_hop(hop, &mut cell);
            let mut recognized_at = None;
            for (i, relay) in relays.iter_mut().enumerate().take(hop + 1) {
                if relay.strip_forward(&mut cell) {
                    recognized_at = Some(i);
                    break;
                }
            }
            assert_eq!(recognized_at, Some(hop), "round {round}");
            assert_eq!(cell.data, payload);
        }
    }
}
