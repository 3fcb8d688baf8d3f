//! Dataset specifications mirroring the paper's Table 3 shapes.

/// Which of the paper's six benchmark datasets a spec models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Wikipedia user–page edits (bipartite, high repetition).
    Wiki,
    /// MOOC student–courseware interactions (bipartite, few items).
    Mooc,
    /// Reddit user–subreddit posts (bipartite).
    Reddit,
    /// LastFM user–song listens (bipartite, very heavy repetition,
    /// long time span).
    Lastfm,
    /// Wikipedia Talk-page messages (non-bipartite, power-law).
    WikiTalk,
    /// GDELT global event stream (dense, quantized timestamps).
    Gdelt,
}

impl DatasetKind {
    /// All six kinds in the paper's presentation order.
    pub fn all() -> [DatasetKind; 6] {
        [
            DatasetKind::Wiki,
            DatasetKind::Mooc,
            DatasetKind::Reddit,
            DatasetKind::Lastfm,
            DatasetKind::WikiTalk,
            DatasetKind::Gdelt,
        ]
    }

    /// The paper's four standard (small) benchmarks.
    pub fn standard() -> [DatasetKind; 4] {
        [
            DatasetKind::Wiki,
            DatasetKind::Mooc,
            DatasetKind::Reddit,
            DatasetKind::Lastfm,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Wiki => "Wiki",
            DatasetKind::Mooc => "MOOC",
            DatasetKind::Reddit => "Reddit",
            DatasetKind::Lastfm => "LastFM",
            DatasetKind::WikiTalk => "WikiTalk",
            DatasetKind::Gdelt => "GDELT",
        }
    }
}

/// Parameters of a synthetic CTDG generator run.
///
/// The `spec(kind, scale)` constructor reproduces the paper's Table 3
/// shapes divided by `scale` (features divided by a milder factor so
/// that models keep meaningful capacity).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Which paper dataset this models.
    pub kind: DatasetKind,
    /// Number of "user" nodes (all nodes for non-bipartite kinds).
    pub n_src: usize,
    /// Number of "item" nodes (0 for non-bipartite kinds).
    pub n_items: usize,
    /// Number of temporal edges.
    pub n_edges: usize,
    /// Node feature width (`d_v`).
    pub d_node: usize,
    /// Edge feature width (`d_e`).
    pub d_edge: usize,
    /// Largest timestamp (`max(t)`).
    pub max_t: f64,
    /// Probability that a user's next interaction repeats a previous
    /// partner (drives dedup/cache effectiveness).
    pub repeat_prob: f64,
    /// Zipf skew for partner popularity.
    pub zipf_s: f64,
    /// Number of latent clusters for features/affinity (learnability).
    pub n_clusters: usize,
    /// Timestamp quantum (0 = continuous). GDELT uses a 15-minute
    /// event cadence, giving few distinct time deltas.
    pub time_quantum: f64,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// The default reproduction-scale spec for `kind`: Table 3 shapes
    /// scaled down to run in minutes on a CPU-only machine
    /// (node/edge counts ≈ ÷20 for standard sets, more for the large
    /// ones; feature dims ≈ ÷5).
    pub fn of(kind: DatasetKind) -> DatasetSpec {
        match kind {
            // Wiki: 9227 nodes / 157k edges / d_v=d_e=172 / max_t 2.7e6
            DatasetKind::Wiki => DatasetSpec {
                kind,
                n_src: 320,
                n_items: 140,
                n_edges: 7_800,
                d_node: 32,
                d_edge: 32,
                max_t: 2.7e6,
                repeat_prob: 0.75,
                zipf_s: 1.1,
                n_clusters: 8,
                time_quantum: 0.0,
                seed: 0x0005_1571,
            },
            // MOOC: 7144 nodes / 412k edges / d=128
            DatasetKind::Mooc => DatasetSpec {
                kind,
                n_src: 300,
                n_items: 60,
                n_edges: 16_000,
                d_node: 24,
                d_edge: 24,
                max_t: 2.6e6,
                repeat_prob: 0.8,
                zipf_s: 1.2,
                n_clusters: 6,
                time_quantum: 0.0,
                seed: 0x0003_00c2,
            },
            // Reddit: 10984 nodes / 672k edges / d=172
            DatasetKind::Reddit => DatasetSpec {
                kind,
                n_src: 440,
                n_items: 110,
                n_edges: 26_000,
                d_node: 32,
                d_edge: 32,
                max_t: 2.7e6,
                repeat_prob: 0.7,
                zipf_s: 1.15,
                n_clusters: 10,
                time_quantum: 0.0,
                seed: 0x0008_edd3,
            },
            // LastFM: 1980 nodes / 1.29M edges / d=128 / max_t 1.4e8
            DatasetKind::Lastfm => DatasetSpec {
                kind,
                n_src: 70,
                n_items: 30,
                n_edges: 48_000,
                d_node: 24,
                d_edge: 24,
                max_t: 1.4e8,
                repeat_prob: 0.85,
                zipf_s: 1.05,
                n_clusters: 5,
                time_quantum: 0.0,
                seed: 0x0001_a5f4,
            },
            // WikiTalk: 1.14M nodes / 7.8M edges / d=128 / max_t 1.2e9
            DatasetKind::WikiTalk => DatasetSpec {
                kind,
                n_src: 11_400,
                n_items: 0,
                n_edges: 60_000,
                d_node: 16,
                d_edge: 16,
                max_t: 1.2e9,
                repeat_prob: 0.55,
                zipf_s: 1.3,
                n_clusters: 12,
                time_quantum: 0.0,
                seed: 0x0007_17a5,
            },
            // GDELT: 16682 nodes / 191M edges / d_v=413, d_e=186 /
            // max_t 1.8e5 (two orders of magnitude more edges than
            // the standard sets; quantized event cadence).
            DatasetKind::Gdelt => DatasetSpec {
                kind,
                n_src: 600,
                n_items: 0,
                n_edges: 120_000,
                d_node: 40,
                d_edge: 18,
                max_t: 1.8e5,
                repeat_prob: 0.6,
                zipf_s: 1.1,
                n_clusters: 15,
                time_quantum: 900.0,
                seed: 0x0009_de16,
            },
        }
    }

    /// Returns a copy with node and edge counts divided by `factor`
    /// (for quick tests and CI-speed benches).
    pub fn scaled_down(mut self, factor: usize) -> DatasetSpec {
        assert!(factor >= 1);
        self.n_src = (self.n_src / factor).max(8);
        self.n_items = if self.n_items > 0 {
            (self.n_items / factor).max(4)
        } else {
            0
        };
        self.n_edges = (self.n_edges / factor).max(64);
        self
    }

    /// Whether the generator draws bipartite (user→item) edges.
    pub fn bipartite(&self) -> bool {
        self.n_items > 0
    }

    /// Total node count.
    pub fn num_nodes(&self) -> usize {
        self.n_src + self.n_items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_kinds_have_specs() {
        for kind in DatasetKind::all() {
            let s = DatasetSpec::of(kind);
            assert!(s.n_edges > 0);
            assert!(s.num_nodes() > 0);
            assert!(s.max_t > 0.0);
            assert_eq!(s.kind, kind);
        }
    }

    #[test]
    fn relative_shape_matches_table3_ordering() {
        // Edge-count ordering from the paper:
        // Wiki < MOOC < Reddit < LastFM < WikiTalk < GDELT.
        let e: Vec<usize> = DatasetKind::all()
            .iter()
            .map(|&k| DatasetSpec::of(k).n_edges)
            .collect();
        assert!(e.windows(2).all(|w| w[0] < w[1]), "{e:?}");
        // GDELT has far more edges per node than the rest.
        let g = DatasetSpec::of(DatasetKind::Gdelt);
        let w = DatasetSpec::of(DatasetKind::Wiki);
        assert!(
            g.n_edges / g.num_nodes() > 10 * w.n_edges / w.num_nodes(),
            "GDELT density should dominate"
        );
        // WikiTalk has the most nodes.
        assert!(DatasetSpec::of(DatasetKind::WikiTalk).num_nodes()
            > DatasetKind::all()
                .iter()
                .filter(|&&k| k != DatasetKind::WikiTalk)
                .map(|&k| DatasetSpec::of(k).num_nodes())
                .max()
                .unwrap());
    }

    #[test]
    fn scaled_down_shrinks() {
        let s = DatasetSpec::of(DatasetKind::Wiki).scaled_down(10);
        assert!(s.n_edges <= DatasetSpec::of(DatasetKind::Wiki).n_edges / 10);
        assert!(s.n_src >= 8);
    }

    #[test]
    fn bipartite_flags() {
        assert!(DatasetSpec::of(DatasetKind::Wiki).bipartite());
        assert!(!DatasetSpec::of(DatasetKind::WikiTalk).bipartite());
        assert!(!DatasetSpec::of(DatasetKind::Gdelt).bipartite());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(DatasetKind::Wiki.name(), "Wiki");
        assert_eq!(DatasetKind::Gdelt.name(), "GDELT");
        assert_eq!(DatasetKind::standard().len(), 4);
    }
}
