//! Memory footprint per stored key, from the concrete node layouts: the
//! threaded internal tree holds `n + 2` nodes (two sentinels) for `n` keys,
//! while the external baselines hold `2n - 1`, so `lfbst` must cost fewer
//! bytes per key than either at every size.

use lfbst::LfBst;

fn bytes_per_key(nodes: f64, node_bytes: usize, n: f64) -> f64 {
    nodes * node_bytes as f64 / n
}

#[test]
fn lfbst_stores_a_key_in_fewer_bytes_than_the_external_trees() {
    for n in [1_000f64, 100_000.0] {
        let lfbst = bytes_per_key(n + 2.0, LfBst::<u64>::node_size_bytes(), n);
        let natarajan = bytes_per_key(2.0 * n - 1.0, natarajan_bst::node_size_bytes(), n);
        let ellen = bytes_per_key(2.0 * n - 1.0, ellen_bst::node_size_bytes(), n);
        assert!(lfbst < natarajan, "n = {n}: lfbst {lfbst:.1} B/key, natarajan {natarajan:.1}");
        assert!(lfbst < ellen, "n = {n}: lfbst {lfbst:.1} B/key, ellen {ellen:.1}");
    }
}
