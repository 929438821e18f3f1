//! Property tests for the wire codec and onion layering: round-trips for
//! *every* representable cell, detection of corruption, and the fused
//! onion kernels checked byte for byte against a byte-at-a-time oracle.
//! These properties license the simulator's structured-cell fast path.
//!
//! Generation is driven by [`simcore::rng::SimRng`] from fixed seeds —
//! the same randomized coverage as a proptest suite, but reproducible
//! bit-for-bit and free of external dependencies.

use simcore::rng::SimRng;
use torcell::prelude::*;

const CASES: usize = 256;

/// The naive oracle for one onion layer: the xorshift64* keystream for
/// (`key`, `nonce`) XORed one byte at a time — byte `i` takes byte `i % 8`
/// of keystream word `i / 8`. Every fused pass in `torcell::crypto` must
/// produce exactly these bytes.
struct LayerCipher {
    key: LayerKey,
}

impl LayerCipher {
    fn new(key: LayerKey) -> LayerCipher {
        LayerCipher { key }
    }

    fn apply(&self, nonce: u64, data: &mut [u8]) {
        let mut state = self.key.0 ^ nonce.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        if state == 0 {
            state = 0x9E37_79B9_7F4A_7C15;
        }
        let mut word = [0u8; 8];
        for (i, byte) in data.iter_mut().enumerate() {
            if i % 8 == 0 {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                word = state.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes();
            }
            *byte ^= word[i % 8];
        }
    }
}

/// A client route and the matching relay states for `hops` layers, plus
/// the layer keys.
fn matched_route(hops: usize, key_seed: u64) -> (OnionRoute, Vec<RelayCrypt>, Vec<LayerKey>) {
    let keys: Vec<LayerKey> = (0..hops)
        .map(|i| {
            LayerKey(
                key_seed
                    .wrapping_add(i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    | 1,
            )
        })
        .collect();
    let mut route = OnionRoute::new();
    for &key in &keys {
        route.push_layer(key);
    }
    let relays = keys.iter().map(|&key| RelayCrypt::new(key)).collect();
    (route, relays, keys)
}

fn arb_relay_command(rng: &mut SimRng) -> RelayCommand {
    const ALL: [RelayCommand; 7] = [
        RelayCommand::Begin,
        RelayCommand::Data,
        RelayCommand::End,
        RelayCommand::Connected,
        RelayCommand::Sendme,
        RelayCommand::Extend,
        RelayCommand::Extended,
    ];
    ALL[rng.range_usize(0, ALL.len())]
}

fn arb_bytes(rng: &mut SimRng, min: usize, max_inclusive: usize) -> Vec<u8> {
    let len = rng.range_usize(min, max_inclusive + 1);
    let mut data = vec![0u8; len];
    rng.fill_bytes(&mut data);
    data
}

fn arb_handshake(rng: &mut SimRng) -> [u8; HANDSHAKE_LEN] {
    let mut hs = [0u8; HANDSHAKE_LEN];
    rng.fill_bytes(&mut hs);
    hs
}

fn arb_cell(rng: &mut SimRng) -> Cell {
    let circ = CircuitId(rng.u32());
    match rng.range_usize(0, 5) {
        0 => Cell::create(circ, arb_handshake(rng)),
        1 => Cell::created(circ, arb_handshake(rng)),
        2 => Cell::destroy(circ, (rng.u32() & 0xFF) as u8),
        3 => Cell {
            circ,
            body: CellBody::Padding,
        },
        _ => {
            let data = arb_bytes(rng, 0, RELAY_DATA_MAX);
            Cell {
                circ,
                body: CellBody::Relay(RelayCell {
                    cmd: arb_relay_command(rng),
                    stream: StreamId((rng.u32() & 0xFFFF) as u16),
                    digest: payload_digest(&data),
                    data,
                }),
            }
        }
    }
}

#[test]
fn cell_round_trip() {
    let mut rng = SimRng::seed_from(0xC0DEC);
    for _ in 0..CASES {
        let cell = arb_cell(&mut rng);
        let wire = encode_cell(&cell);
        assert_eq!(wire.len(), CELL_LEN);
        let decoded = decode_cell(&wire).expect("decode");
        assert_eq!(decoded, cell);
    }
}

#[test]
fn encoding_is_injective_on_distinct_cells() {
    let mut rng = SimRng::seed_from(0x1A1A);
    for _ in 0..CASES {
        let a = arb_cell(&mut rng);
        let b = arb_cell(&mut rng);
        let ea = encode_cell(&a);
        let eb = encode_cell(&b);
        if a == b {
            assert_eq!(ea, eb);
        } else {
            assert_ne!(ea, eb, "distinct cells must encode differently");
        }
    }
}

#[test]
fn feedback_round_trip() {
    let mut rng = SimRng::seed_from(0xFB);
    for _ in 0..CASES {
        let fb = Feedback {
            circ: CircuitId(rng.u32()),
            seq: rng.u64(),
        };
        let wire = encode_feedback(&fb);
        assert_eq!(wire.len(), FEEDBACK_WIRE_LEN);
        assert_eq!(decode_feedback(&wire), Ok(fb));
    }
}

#[test]
fn feedback_corruption_is_detected() {
    let mut rng = SimRng::seed_from(0xBADF);
    for _ in 0..CASES {
        let fb = Feedback {
            circ: CircuitId(rng.u32()),
            seq: rng.u64(),
        };
        let flip_byte = rng.range_usize(0, FEEDBACK_WIRE_LEN);
        let flip_bits = rng.range_u64(1, 256) as u8;
        let mut wire = encode_feedback(&fb);
        wire[flip_byte] ^= flip_bits;
        // Any single-byte corruption must not decode to the same frame
        // (magic, checksum, or value changes).
        match decode_feedback(&wire) {
            Err(_) => {}
            Ok(decoded) => assert_ne!(decoded, fb),
        }
    }
}

#[test]
fn truncated_cells_never_decode() {
    let mut rng = SimRng::seed_from(0x7271);
    for _ in 0..CASES {
        let cell = arb_cell(&mut rng);
        let cut = rng.range_usize(0, CELL_LEN);
        let wire = encode_cell(&cell);
        assert!(decode_cell(&wire[..cut]).is_err());
    }
}

#[test]
fn layer_cipher_is_involutive() {
    let mut rng = SimRng::seed_from(0x1417);
    for _ in 0..CASES {
        let key = LayerKey(rng.u64());
        let cipher = LayerCipher::new(key);
        let nonce = rng.u64();
        let data = arb_bytes(&mut rng, 0, 599);
        let mut buf = data.clone();
        cipher.apply(nonce, &mut buf);
        cipher.apply(nonce, &mut buf);
        assert_eq!(buf, data);
        // A relay's first backward layer is the oracle's layer at nonce 0.
        let mut cell = RelayCell {
            cmd: RelayCommand::Data,
            stream: StreamId(1),
            digest: 0,
            data: data.clone(),
        };
        RelayCrypt::new(key).add_backward(&mut cell);
        cipher.apply(0, &mut cell.data);
        assert_eq!(cell.data, data);
    }
}

#[test]
fn onion_route_recognizes_exactly_the_target_hop() {
    let mut rng = SimRng::seed_from(0x0111);
    for _ in 0..CASES {
        let hops = rng.range_usize(1, 7);
        let target = rng.range_usize(0, 6) % hops;
        let payload = arb_bytes(&mut rng, 8, RELAY_DATA_MAX);
        let (mut route, mut relays, _) = matched_route(hops, rng.u64());
        let mut cell = RelayCell::unsealed(RelayCommand::Data, StreamId(1), payload.clone());
        route.wrap_for_hop(target, &mut cell);
        assert_eq!(cell.digest, payload_digest(&payload), "the wrap seals");
        let mut recognized_at = None;
        for (i, relay) in relays.iter_mut().enumerate().take(target + 1) {
            if relay.strip_forward(&mut cell) {
                recognized_at = Some(i);
                break;
            }
        }
        assert_eq!(recognized_at, Some(target));
        assert_eq!(cell.data, payload);
    }
}

#[test]
fn fused_kernels_match_the_bytewise_oracle() {
    let mut rng = SimRng::seed_from(0xF05E);
    // 1–6 hops: five and six cross the kernel's four-layer grouping.
    for hops in 1..=6 {
        let (mut route, mut relays, keys) = matched_route(hops, rng.u64());
        let oracle: Vec<LayerCipher> = keys.into_iter().map(LayerCipher::new).collect();
        let mut fwd = vec![0u64; hops];
        let mut bwd = vec![0u64; hops];
        // Every length, so every tail length meets every layer count.
        for len in 0..=RELAY_DATA_MAX {
            let mut plaintext = vec![0u8; len];
            rng.fill_bytes(&mut plaintext);
            // An empty payload verifies at the first layer it meets, so
            // it can only be meant for hop 0.
            let target = if len == 0 {
                0
            } else {
                rng.range_usize(0, hops)
            };
            let at = format!("{hops} hops, {len} bytes, hop {target}");

            // Forward: one sealed wrap, then one fused strip per hop.
            let nonces: Vec<u64> = fwd[..=target].to_vec();
            let mut expected = plaintext.clone();
            for (layer, &nonce) in oracle.iter().zip(&nonces) {
                layer.apply(nonce, &mut expected);
            }
            for n in &mut fwd[..=target] {
                *n += 1;
            }
            let mut cell = RelayCell::unsealed(RelayCommand::Data, StreamId(1), plaintext.clone());
            route.wrap_for_hop(target, &mut cell);
            assert_eq!(cell.data, expected, "wrap: {at}");
            assert_eq!(cell.digest, payload_digest(&plaintext), "seal: {at}");
            for i in 0..=target {
                oracle[i].apply(nonces[i], &mut expected);
                let recognized = relays[i].strip_forward(&mut cell);
                assert_eq!(cell.data, expected, "strip at {i}: {at}");
                assert_eq!(recognized, i == target, "recognized at {i}: {at}");
            }

            // Backward, cycling the origin through every hop.
            let origin = if len == 0 { 0 } else { len % hops };
            let mut cell = RelayCell::data(StreamId(1), plaintext.clone());
            let mut expected = plaintext.clone();
            for i in (0..=origin).rev() {
                relays[i].add_backward(&mut cell);
                oracle[i].apply(bwd[i], &mut expected);
                bwd[i] += 1;
                assert_eq!(cell.data, expected, "add at {i}: {hops} hops, {len} bytes");
            }
            assert_eq!(route.unwrap_inbound(&mut cell), Some(origin));
            assert_eq!(cell.data, plaintext);
        }
    }
}

#[test]
fn fused_strip_rejects_every_single_bit_flip() {
    let mut rng = SimRng::seed_from(0xB17F);
    for hops in 1..=6 {
        for len in [RELAY_DATA_MAX, 61] {
            let (mut route, relays, _) = matched_route(hops, rng.u64());
            let mut plaintext = vec![0u8; len];
            rng.fill_bytes(&mut plaintext);
            let mut sealed = RelayCell::unsealed(RelayCommand::Data, StreamId(1), plaintext);
            route.wrap_for_hop(hops - 1, &mut sealed);
            let recognized_by = |cell: &RelayCell| {
                let mut cell = cell.clone();
                let mut relays = relays.clone();
                relays.iter_mut().position(|r| r.strip_forward(&mut cell))
            };
            assert_eq!(recognized_by(&sealed), Some(hops - 1));
            for pos in 0..len {
                let mut cell = sealed.clone();
                cell.data[pos] ^= 1 << (pos % 8);
                assert_eq!(
                    recognized_by(&cell),
                    None,
                    "{hops} hops, {len} bytes: flip at byte {pos} was recognized"
                );
            }
        }
    }
}

#[test]
fn digest_mismatch_detected_after_tamper() {
    let mut rng = SimRng::seed_from(0xD163);
    for _ in 0..CASES {
        let payload = arb_bytes(&mut rng, 1, 64);
        let idx = rng.range_usize(0, 64);
        let bits = rng.range_u64(1, 256) as u8;
        let mut cell = RelayCell::data(StreamId(1), payload);
        let i = idx % cell.data.len();
        cell.data[i] ^= bits;
        assert!(!cell.digest_ok());
    }
}
