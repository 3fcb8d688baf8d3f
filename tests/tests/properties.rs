//! Property-based integration tests over the framework's core
//! invariants, spanning graph, sampler, core-operator, and tensor
//! crates.
//!
//! Each property is checked over many randomized cases drawn from a
//! seeded in-tree RNG, so runs are deterministic and need no external
//! property-testing framework.

use std::sync::Arc;

use tgl_graph::TemporalGraph;
use tgl_runtime::rng::{Rng, SeedableRng, StdRng};
use tgl_sampler::{SamplingStrategy, TemporalSampler};
use tgl_tensor::ops::{segment_softmax, segment_sum};
use tgl_tensor::Tensor;
use tglite::{op, TBlock, TContext};

const CASES: usize = 64;

/// Random small temporal graph: up to 12 nodes, up to 60 edges.
fn random_graph(rng: &mut StdRng) -> Arc<TemporalGraph> {
    let n_edges = rng.gen_range(1usize..60);
    let mut edges: Vec<(u32, u32, f64)> = (0..n_edges)
        .map(|_| {
            (
                rng.gen_range(0u32..12),
                rng.gen_range(0u32..12),
                rng.gen_range(0.0f64..1000.0),
            )
        })
        .collect();
    let n = rng.gen_range(2usize..12).max(
        edges
            .iter()
            .map(|&(s, d, _)| s.max(d) as usize + 1)
            .max()
            .unwrap_or(1),
    );
    for e in edges.iter_mut() {
        e.2 = e.2.max(0.001);
    }
    Arc::new(TemporalGraph::from_edges(n, edges))
}

/// The sampler never returns an edge at or after the query time, never
/// exceeds k per destination, and its dst_index is valid and
/// non-decreasing.
#[test]
fn sampler_respects_temporal_constraint() {
    let mut rng = StdRng::seed_from_u64(0x5A1);
    for _ in 0..CASES {
        let g = random_graph(&mut rng);
        let k = rng.gen_range(1usize..6);
        let n_queries = rng.gen_range(1usize..20);
        let nodes: Vec<u32> = (0..n_queries)
            .map(|_| rng.gen_range(0u32..12) % g.num_nodes() as u32)
            .collect();
        let times: Vec<f64> = (0..n_queries)
            .map(|_| rng.gen_range(0.0f64..1200.0))
            .collect();
        let strategy = if rng.gen_bool(0.5) {
            SamplingStrategy::Uniform
        } else {
            SamplingStrategy::Recent
        };
        let s = TemporalSampler::new(k, strategy).sample(&g.tcsr(), &nodes, &times);
        // Temporal constraint: strictly earlier.
        for (e, &d) in s.dst_index.iter().enumerate() {
            assert!(d < nodes.len());
            assert!(
                s.src_times[e] < times[d],
                "edge at t={} for query t={}",
                s.src_times[e],
                times[d]
            );
        }
        assert!(s.dst_index.windows(2).all(|w| w[0] <= w[1]));
        // Per-destination cap.
        let mut counts = vec![0usize; nodes.len()];
        for &d in &s.dst_index {
            counts[d] += 1;
        }
        assert!(counts.iter().all(|&c| c <= k));
    }
}

/// dedup followed by its inversion hook restores the original row
/// layout for any destination multiset.
#[test]
fn dedup_invert_is_identity() {
    let mut rng = StdRng::seed_from_u64(0xDED);
    for _ in 0..CASES {
        let n_pairs = rng.gen_range(1usize..40);
        let nodes: Vec<u32> = (0..n_pairs).map(|_| rng.gen_range(0u32..8)).collect();
        let times: Vec<f64> = (0..n_pairs)
            .map(|_| rng.gen_range(0u32..5) as f64)
            .collect();
        let g = Arc::new(TemporalGraph::from_edges(8, vec![(0, 1, 1.0)]));
        let ctx = TContext::new(g);
        let blk = TBlock::new(&ctx, 0, nodes.clone(), times.clone());
        op::dedup(&blk);
        // Output rows encode (node, time) so the inversion is checkable.
        let rows: Vec<f32> = blk.with_dst(|n, t| {
            n.iter()
                .zip(t)
                .map(|(&a, &b)| a as f32 * 1000.0 + b as f32)
                .collect()
        });
        let k = rows.len();
        let restored = blk.run_hooks(Tensor::from_vec(rows, [k, 1]));
        let expect: Vec<f32> = nodes
            .iter()
            .zip(&times)
            .map(|(&a, &b)| a as f32 * 1000.0 + b as f32)
            .collect();
        assert_eq!(restored.to_vec(), expect);
    }
}

/// segment_sum equals a naive per-group accumulation.
#[test]
fn segment_sum_matches_naive() {
    let mut rng = StdRng::seed_from_u64(0x5E6);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..50);
        let vals: Vec<f32> = (0..n).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let nseg = rng.gen_range(1usize..8);
        let seed: u64 = rng.gen();
        let seg: Vec<usize> = (0..n)
            .map(|i| ((seed as usize).wrapping_add(i * 7919)) % nseg)
            .collect();
        let t = Tensor::from_vec(vals.clone(), [n, 1]);
        let got = segment_sum(&t, &seg, nseg).to_vec();
        let mut naive = vec![0.0f32; nseg];
        for (i, &s) in seg.iter().enumerate() {
            naive[s] += vals[i];
        }
        for (a, b) in got.iter().zip(&naive) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}

/// segment_softmax rows are positive and sum to 1 within each non-empty
/// segment.
#[test]
fn segment_softmax_normalizes() {
    let mut rng = StdRng::seed_from_u64(0x50F);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..50);
        let vals: Vec<f32> = (0..n).map(|_| rng.gen_range(-20.0f32..20.0)).collect();
        let nseg = rng.gen_range(1usize..6);
        let seg: Vec<usize> = (0..n).map(|i| i % nseg).collect();
        let y = segment_softmax(&Tensor::from_vec(vals, [n, 1]), &seg, nseg).to_vec();
        assert!(y.iter().all(|&v| v > 0.0 && v.is_finite()));
        let mut sums = vec![0.0f32; nseg];
        for (i, &s) in seg.iter().enumerate() {
            sums[s] += y[i];
        }
        for (s, &total) in sums.iter().enumerate() {
            if seg.contains(&s) {
                assert!((total - 1.0).abs() < 1e-4, "segment {s} sums to {total}");
            }
        }
    }
}

/// Every T-CSR adjacency entry corresponds to a real edge of the graph
/// with matching endpoints and timestamp.
#[test]
fn tcsr_entries_are_real_edges() {
    let mut rng = StdRng::seed_from_u64(0x7C5);
    for _ in 0..CASES {
        let g = random_graph(&mut rng);
        let csr = g.tcsr();
        for v in 0..g.num_nodes() as u32 {
            for (nbr, eid, t) in csr.neighbors(v) {
                let (s, d, et) = g.edge(eid as usize);
                assert_eq!(et, t);
                assert!(
                    (s == v && d == nbr) || (d == v && s == nbr),
                    "entry ({v}, {nbr}) does not match edge ({s}, {d})"
                );
            }
        }
    }
}

/// Mailbox circular buffers keep exactly the last `slots` mails per
/// node, and `latest` always returns the most recent one.
#[test]
fn mailbox_circular_invariant() {
    use tglite::tensor::Tensor;
    use tglite::{Device, Mailbox};
    let mut rng = StdRng::seed_from_u64(0x3A1);
    for _ in 0..CASES {
        let slots = rng.gen_range(1usize..4);
        let n_writes = rng.gen_range(1usize..12);
        let writes: Vec<f64> = (0..n_writes)
            .map(|_| rng.gen_range(0.0f64..100.0))
            .collect();
        let mb = Mailbox::new(1, slots, 1, Device::Host);
        for (i, &t) in writes.iter().enumerate() {
            mb.store(&[0], &Tensor::from_vec(vec![i as f32], [1, 1]), &[t]);
        }
        let (mail, times) = mb.latest(&[0]);
        assert_eq!(mail.to_vec(), vec![(writes.len() - 1) as f32]);
        assert_eq!(times, vec![*writes.last().unwrap()]);
        let (all, _, owners) = mb.all_slots(&[0]);
        assert_eq!(all.dims(), &[slots, 1][..]);
        assert!(owners.iter().all(|&o| o == 0));
        // Slots hold the last `min(slots, writes)` values.
        let kept: std::collections::HashSet<i64> =
            all.to_vec().iter().map(|&v| v as i64).collect();
        for i in writes.len().saturating_sub(slots)..writes.len() {
            assert!(kept.contains(&(i as i64)), "mail {i} evicted too early");
        }
    }
}

/// Memory stores are exact and per-node isolated.
#[test]
fn memory_store_isolated() {
    use tglite::tensor::Tensor;
    use tglite::{Device, Memory};
    let mut rng = StdRng::seed_from_u64(0x3E3);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..8);
        let n_updates = rng.gen_range(1usize..20);
        let mem = Memory::new(n, 1, Device::Host);
        let mut expect = vec![(0.0f32, 0.0f64); n];
        for _ in 0..n_updates {
            let node = rng.gen_range(0usize..8) % n;
            let v = rng.gen_range(-5.0f32..5.0);
            let t = rng.gen_range(0.0f64..50.0);
            mem.store(&[node as u32], &Tensor::from_vec(vec![v], [1, 1]), &[t]);
            expect[node] = (v, t);
        }
        for (i, &(v, t)) in expect.iter().enumerate() {
            assert_eq!(mem.rows(&[i as u32]).to_vec(), vec![v]);
            assert_eq!(mem.times(&[i as u32]), vec![t]);
        }
    }
}

/// Chronological splits partition the edge list for any fractions.
#[test]
fn split_partitions_edges() {
    let mut rng = StdRng::seed_from_u64(0x5B1);
    for _ in 0..CASES {
        let edges = rng.gen_range(1usize..200);
        let train = rng.gen_range(0.1f64..0.8);
        let val_frac = rng.gen_range(0.0f64..0.19);
        let g = TemporalGraph::from_edges(2, (0..edges).map(|i| (0, 1, i as f64)).collect());
        let s = tgl_data::chronological_split(&g, train, val_frac);
        assert_eq!(s.train.start, 0);
        assert_eq!(s.train.end, s.val.start);
        assert_eq!(s.val.end, s.test.start);
        assert_eq!(s.test.end, edges);
    }
}

/// coalesce(Latest) keeps exactly one edge per destination with the
/// maximum timestamp among that destination's edges.
#[test]
fn coalesce_latest_picks_max_time() {
    let mut rng = StdRng::seed_from_u64(0xC0A);
    for _ in 0..CASES {
        let g = random_graph(&mut rng);
        let k = rng.gen_range(2usize..6);
        let ctx = TContext::new(Arc::clone(&g));
        let nodes: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let times = vec![2000.0; nodes.len()];
        let blk = TBlock::new(&ctx, 0, nodes, times);
        tglite::TSampler::new(k, SamplingStrategy::Recent).sample(&blk);
        let before: Vec<(usize, f64)> = blk
            .dst_index()
            .iter()
            .zip(blk.src_times())
            .map(|(&d, t)| (d, t))
            .collect();
        op::coalesce(&blk, op::CoalesceBy::Latest);
        let mut max_per_dst = std::collections::HashMap::new();
        for (d, t) in before {
            let e = max_per_dst.entry(d).or_insert(t);
            if t > *e {
                *e = t;
            }
        }
        assert_eq!(blk.num_edges(), max_per_dst.len());
        for (&d, t) in blk.dst_index().iter().zip(blk.src_times()) {
            assert_eq!(t, max_per_dst[&d]);
        }
    }
}
