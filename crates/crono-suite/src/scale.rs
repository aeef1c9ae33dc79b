//! Experiment scales: the paper's exact input sizes, plus reduced
//! presets so the full characterization completes on laptop-class
//! machines. Every experiment takes a [`Scale`]; `--scale paper` on the
//! CLI selects [`Scale::paper`].

/// Input sizes and sweep parameters for one characterization campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Preset name (shown in reports).
    pub name: &'static str,
    /// Vertices of the synthetic sparse graph (Table III: 1,048,576).
    pub sparse_vertices: usize,
    /// Undirected edges of the synthetic sparse graph (Table III:
    /// 16,777,216 directed = 8 M undirected; the paper counts directed).
    pub sparse_edges: usize,
    /// Vertices of the APSP/BETW_CENT adjacency matrix (paper: 16,384).
    pub matrix_vertices: usize,
    /// TSP cities (paper: 32).
    pub tsp_cities: usize,
    /// Simulated thread counts swept in Fig. 1 (paper: 1–256).
    pub thread_counts: Vec<usize>,
    /// Native thread counts swept in Fig. 9 (paper: 1–16).
    pub native_thread_counts: Vec<usize>,
    /// PageRank iterations per run.
    pub pagerank_iters: u32,
    /// Louvain move rounds (the bounded heuristic's bound).
    pub comm_rounds: u32,
    /// Power-of-two shrink applied to the Table III dataset stand-ins
    /// (0 = paper scale).
    pub dataset_shrink: u32,
    /// Sparse-graph vertex counts for the Fig. 5 scaling study
    /// (paper: 16 K – 4 M).
    pub vertex_scale_points: Vec<usize>,
    /// Matrix vertex counts for Fig. 5's APSP/BETW panel
    /// (paper: 1 K – 32 K).
    pub matrix_scale_points: Vec<usize>,
    /// City counts for Fig. 5's TSP panel (paper: "for TSP we scale
    /// from 4 to 32 cities").
    pub tsp_scale_points: Vec<usize>,
    /// Deterministic seed for all generators.
    pub seed: u64,
}

impl Scale {
    /// Tiny inputs for unit tests, CI smoke runs and `--scale test` (seconds).
    pub fn test() -> Scale {
        Scale {
            name: "test",
            sparse_vertices: 512,
            sparse_edges: 2_048,
            matrix_vertices: 48,
            tsp_cities: 7,
            thread_counts: vec![1, 4, 16],
            native_thread_counts: vec![1, 2, 4],
            pagerank_iters: 3,
            comm_rounds: 4,
            dataset_shrink: 12,
            vertex_scale_points: vec![256, 512, 1_024],
            matrix_scale_points: vec![24, 48],
            tsp_scale_points: vec![5, 7],
            seed: 42,
        }
    }

    /// Default laptop scale: the full sweep in minutes.
    pub fn small() -> Scale {
        Scale {
            name: "small",
            sparse_vertices: 16_384,
            sparse_edges: 131_072,
            matrix_vertices: 256,
            tsp_cities: 11,
            thread_counts: vec![1, 2, 4, 8, 16, 32, 64, 128, 256],
            native_thread_counts: vec![1, 2, 4, 8, 16],
            pagerank_iters: 5,
            comm_rounds: 6,
            dataset_shrink: 7,
            vertex_scale_points: vec![2_048, 8_192, 32_768],
            matrix_scale_points: vec![64, 128, 256, 512],
            tsp_scale_points: vec![8, 10, 12],
            seed: 42,
        }
    }

    /// The paper's exact sizes (Table III; hours of simulation).
    pub fn paper() -> Scale {
        Scale {
            name: "paper",
            sparse_vertices: 1_048_576,
            sparse_edges: 8_388_608, // 16,777,216 directed edges
            matrix_vertices: 16_384,
            tsp_cities: 32,
            thread_counts: vec![1, 2, 4, 8, 16, 32, 64, 128, 256],
            native_thread_counts: vec![1, 2, 4, 8, 16],
            pagerank_iters: 10,
            comm_rounds: 8,
            dataset_shrink: 0,
            vertex_scale_points: vec![16_384, 262_144, 1_048_576, 4_194_304],
            matrix_scale_points: vec![1_024, 4_096, 16_384, 32_768],
            tsp_scale_points: vec![4, 8, 16, 32],
            seed: 42,
        }
    }

    /// Thinned thread list used where only the *best* speedup is needed
    /// (Fig. 5 / Table IV): probing every count of
    /// [`Scale::thread_counts`] per input would multiply simulation time
    /// without changing which count wins.
    pub fn probe_thread_counts(&self) -> Vec<usize> {
        if self.thread_counts.len() <= 4 {
            return self.thread_counts.clone();
        }
        let mut probes: Vec<usize> = self
            .thread_counts
            .iter()
            .copied()
            .filter(|t| [1, 16, 64, 256].contains(t))
            .collect();
        if probes.is_empty() {
            probes = self.thread_counts.clone();
        }
        probes
    }

    /// Looks a preset up by name.
    pub fn by_name(name: &str) -> Option<Scale> {
        match name {
            "test" => Some(Scale::test()),
            "small" => Some(Scale::small()),
            "paper" => Some(Scale::paper()),
            _ => None,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_table_iii() {
        let p = Scale::paper();
        assert_eq!(p.sparse_vertices, 1_048_576);
        assert_eq!(2 * p.sparse_edges, 16_777_216);
        assert_eq!(p.matrix_vertices, 16_384);
        assert_eq!(p.tsp_cities, 32);
        assert_eq!(*p.thread_counts.last().unwrap(), 256);
    }

    #[test]
    fn presets_resolvable_by_name() {
        for name in ["test", "small", "paper"] {
            assert_eq!(Scale::by_name(name).unwrap().name, name);
        }
        assert!(Scale::by_name("huge").is_none());
    }

    #[test]
    fn default_is_small() {
        assert_eq!(Scale::default().name, "small");
    }
}
