//! Benchmarks for the cell codec, onion layering and payload fill (P1 in
//! DESIGN.md §5) — the per-cell costs a real relay implementation would
//! pay on its fast path.

use std::hint::black_box;

use cs_bench::harness::bench_throughput;
use relaynet::prelude::{fill_pattern_extend, verify_fill_pattern, CircId};
use torcell::prelude::*;

fn bench_cell_codec() {
    let cell = Cell::relay_data(CircuitId(7), StreamId(1), vec![0xAB; RELAY_DATA_MAX]);
    let wire = encode_cell(&cell);

    bench_throughput("torcell/codec/encode_data_cell", CELL_LEN as u64, || {
        std::hint::black_box(encode_cell(std::hint::black_box(&cell)));
    });
    bench_throughput("torcell/codec/decode_data_cell", CELL_LEN as u64, || {
        std::hint::black_box(decode_cell(std::hint::black_box(&wire)).expect("valid"));
    });
}

fn bench_feedback_codec() {
    let fb = Feedback {
        circ: CircuitId(9),
        seq: 123_456,
    };
    let wire = encode_feedback(&fb);
    bench_throughput("torcell/feedback/encode", FEEDBACK_WIRE_LEN as u64, || {
        std::hint::black_box(encode_feedback(std::hint::black_box(&fb)));
    });
    bench_throughput("torcell/feedback/decode", FEEDBACK_WIRE_LEN as u64, || {
        std::hint::black_box(decode_feedback(std::hint::black_box(&wire)).expect("valid"));
    });
}

fn bench_onion_layers() {
    bench_throughput(
        "torcell/onion/wrap_3_hops_and_strip",
        RELAY_DATA_MAX as u64,
        || {
            let keys = [LayerKey(11), LayerKey(22), LayerKey(33)];
            let mut route = OnionRoute::new();
            let mut relays: Vec<RelayCrypt> = keys
                .iter()
                .map(|&k| {
                    route.push_layer(k);
                    RelayCrypt::new(k)
                })
                .collect();
            let mut cell = RelayCell::data(StreamId(1), vec![0x5A; RELAY_DATA_MAX]);
            route.wrap_for_hop(2, &mut cell);
            for relay in &mut relays {
                if relay.strip_forward(&mut cell) {
                    break;
                }
            }
            assert!(cell.digest_ok());
        },
    );
}

/// The onion work one DATA cell of a `PathScenario` circuit costs: a
/// sealed wrap for the server's layer (three relays plus the server, so
/// four layers), then one fused strip per hop. The circuit persists across
/// iterations, so layer counters advance as in a real transfer.
fn bench_onion_path_shape() {
    let keys = [LayerKey(11), LayerKey(22), LayerKey(33), LayerKey(44)];
    let mut route = OnionRoute::new();
    let mut relays: Vec<RelayCrypt> = keys
        .iter()
        .map(|&k| {
            route.push_layer(k);
            RelayCrypt::new(k)
        })
        .collect();
    let mut payload = vec![0x5A; RELAY_DATA_MAX];
    bench_throughput(
        "torcell/onion/wrap_4_layers_and_strip",
        RELAY_DATA_MAX as u64,
        || {
            let data = std::mem::take(&mut payload);
            let mut cell = RelayCell::unsealed(RelayCommand::Data, StreamId(1), data);
            route.wrap_for_hop(3, &mut cell);
            let recognized_at = relays.iter_mut().position(|r| r.strip_forward(&mut cell));
            assert_eq!(recognized_at, Some(3));
            payload = cell.data;
        },
    );
}

/// The client's fill and the server's verification of one full DATA
/// payload, into a reused buffer as with the payload pool.
fn bench_payload_fill() {
    let circ = CircId(7);
    let mut buf = Vec::with_capacity(RELAY_DATA_MAX);
    let mut idx = 0u64;
    bench_throughput(
        "relaynet/payload/fill_and_verify",
        RELAY_DATA_MAX as u64,
        || {
            buf.clear();
            fill_pattern_extend(circ, idx, RELAY_DATA_MAX, &mut buf);
            assert!(verify_fill_pattern(circ, idx, black_box(&buf)));
            idx += 1;
        },
    );
}

fn main() {
    bench_cell_codec();
    bench_feedback_codec();
    bench_onion_layers();
    bench_onion_path_shape();
    bench_payload_fill();
}
