//! Simulator configuration — the architectural parameters of Table II.

/// Core microarchitecture model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreModel {
    /// Single-issue in-order core: every memory-access latency stalls the
    /// pipeline (the paper's default configuration).
    InOrder,
    /// Single-issue out-of-order core (Table II: ROB 168, load queue 64,
    /// store queue 48): miss latency is hidden behind a bounded window of
    /// outstanding misses; stores retire through the store queue without
    /// stalling.
    OutOfOrder {
        /// Reorder-buffer entries.
        rob: u32,
        /// Load-queue entries.
        load_queue: u32,
        /// Store-queue entries.
        store_queue: u32,
    },
}

impl CoreModel {
    /// The paper's OOO configuration (Table II).
    pub fn paper_ooo() -> CoreModel {
        CoreModel::OutOfOrder {
            rob: 168,
            load_queue: 64,
            store_queue: 48,
        }
    }

    /// Maximum outstanding misses the core can overlap (memory-level
    /// parallelism). In-order cores have none; OOO cores sustain one miss
    /// per ~8 load-queue entries, clamped to a realistic 4–16.
    pub fn max_outstanding_misses(&self) -> usize {
        match *self {
            CoreModel::InOrder => 1,
            CoreModel::OutOfOrder { load_queue, .. } => (load_queue as usize / 8).clamp(4, 16),
        }
    }

    /// Whether stores retire without stalling the pipeline.
    pub fn has_store_buffer(&self) -> bool {
        matches!(self, CoreModel::OutOfOrder { .. })
    }
}

/// One cache level's geometry and access latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Access latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets given `line_size`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or is zero-sized.
    pub fn num_sets(&self, line_size: u64) -> usize {
        assert!(
            self.size_bytes > 0 && self.associativity > 0,
            "cache must have capacity and associativity"
        );
        let lines = self.size_bytes / line_size;
        assert_eq!(
            self.size_bytes % line_size,
            0,
            "cache size must be a multiple of the line size"
        );
        let sets = lines as usize / self.associativity;
        assert!(
            sets > 0 && (lines as usize).is_multiple_of(self.associativity),
            "cache lines must divide evenly into sets"
        );
        sets
    }
}

/// Mesh routing policy.
///
/// The paper's configuration is XY dimension-ordered routing (Table II);
/// §VII-B suggests *oblivious routing* to reduce contention — implemented
/// here as O1TURN (each message picks XY or YX pseudo-randomly, spreading
/// load over both minimal-path families).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// XY dimension-ordered routing (the paper's Table II default).
    #[default]
    XyDimensionOrder,
    /// O1TURN oblivious routing: per-message random choice of XY or YX.
    O1Turn,
}

/// On-chip network parameters (Table II: electrical 2-D mesh, XY routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshConfig {
    /// Per-hop latency in cycles (1 router + 1 link = 2).
    pub hop_latency: u64,
    /// Flit width in bits.
    pub flit_bits: u64,
    /// Model link contention ("only link contention, infinite input
    /// buffers"). Disable for the NoC-contention ablation.
    pub link_contention: bool,
    /// Routing policy (§VII-B extension; the paper evaluates XY).
    pub routing: RoutingPolicy,
}

/// Off-chip memory parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Number of memory controllers (Table II: 8).
    pub controllers: usize,
    /// DRAM access latency in nanoseconds (Table II: 100 ns).
    pub latency_ns: u64,
    /// Per-controller bandwidth in GBps (Table II: 5 GBps).
    pub bandwidth_gbps: f64,
}

/// Full simulator configuration; [`SimConfig::default`] reproduces
/// Table II at 256 cores.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of cores (and maximum simulated threads).
    pub num_cores: usize,
    /// Core clock in GHz (Table II: 1 GHz).
    pub freq_ghz: f64,
    /// Core microarchitecture.
    pub core: CoreModel,
    /// Private L1 instruction cache.
    pub l1i: CacheConfig,
    /// Private L1 data cache.
    pub l1d: CacheConfig,
    /// Per-core L2 slice (shared NUCA, inclusive).
    pub l2: CacheConfig,
    /// Cache-line size in bytes.
    pub line_size: u64,
    /// ACKWise precise sharer pointers before falling back to broadcast
    /// (Table II: ACKWise-4).
    pub ackwise_pointers: usize,
    /// Mesh network parameters.
    pub mesh: MeshConfig,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// Cycles charged for a lock acquire/release beyond coherence traffic.
    pub lock_overhead: u64,
    /// Cycles charged for passing a barrier beyond waiting for peers.
    pub barrier_overhead: u64,
    /// Enable the locality-aware coherence protocol the paper proposes as
    /// future work (§VII-A, after Kurian et al. ISCA'13): a core's first
    /// touch of a line is served remotely at the L2 home (word-granularity
    /// reply, no L1 allocation); only lines with demonstrated reuse are
    /// cached privately, so low-locality data neither thrashes the L1 nor
    /// generates invalidation traffic.
    pub locality_aware: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_cores: 256,
            freq_ghz: 1.0,
            core: CoreModel::InOrder,
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                associativity: 4,
                latency: 1,
            },
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                associativity: 4,
                latency: 1,
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                associativity: 8,
                latency: 8,
            },
            line_size: 64,
            ackwise_pointers: 4,
            mesh: MeshConfig {
                hop_latency: 2,
                flit_bits: 64,
                link_contention: true,
                routing: RoutingPolicy::XyDimensionOrder,
            },
            dram: DramConfig {
                controllers: 8,
                latency_ns: 100,
                bandwidth_gbps: 5.0,
            },
            lock_overhead: 2,
            barrier_overhead: 4,
            locality_aware: false,
        }
    }
}

impl SimConfig {
    /// Table II with the out-of-order core model (used by Figs. 7–8).
    pub fn paper_ooo() -> SimConfig {
        SimConfig {
            core: CoreModel::paper_ooo(),
            ..SimConfig::default()
        }
    }

    /// A small configuration for fast unit tests: 16 cores, tiny caches.
    pub fn tiny(num_cores: usize) -> SimConfig {
        SimConfig {
            num_cores,
            l1d: CacheConfig {
                size_bytes: 1024,
                associativity: 2,
                latency: 1,
            },
            l2: CacheConfig {
                size_bytes: 4096,
                associativity: 4,
                latency: 8,
            },
            ..SimConfig::default()
        }
    }

    /// DRAM latency in core cycles.
    pub fn dram_latency_cycles(&self) -> u64 {
        (self.dram.latency_ns as f64 * self.freq_ghz).round() as u64
    }

    /// Cycles one controller needs to stream out one cache line
    /// (serialization at the configured bandwidth).
    pub fn dram_service_cycles(&self) -> u64 {
        let bytes_per_cycle = self.dram.bandwidth_gbps / self.freq_ghz;
        (self.line_size as f64 / bytes_per_cycle).ceil() as u64
    }

    /// Flits in a data-bearing message: one header flit plus the line.
    pub fn data_flits(&self) -> u64 {
        1 + self.line_size * 8 / self.mesh.flit_bits
    }

    /// Flits in a control message.
    pub fn control_flits(&self) -> u64 {
        1
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero cores, cache geometry
    /// that does not divide, L2 slice smaller than L1).
    pub fn validate(&self) {
        assert!(self.num_cores > 0, "need at least one core");
        assert!(self.freq_ghz > 0.0, "clock frequency must be positive");
        let _ = self.l1d.num_sets(self.line_size);
        let _ = self.l2.num_sets(self.line_size);
        assert!(
            self.l2.size_bytes >= self.l1d.size_bytes,
            "inclusive L2 slice must be at least as large as the L1-D"
        );
        assert!(self.dram.controllers > 0, "need at least one controller");
        assert!(self.ackwise_pointers > 0, "ackwise needs pointers");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_ii() {
        let c = SimConfig::default();
        c.validate();
        assert_eq!(c.num_cores, 256);
        assert_eq!(c.l1d.num_sets(c.line_size), 128);
        assert_eq!(c.l2.num_sets(c.line_size), 512);
        assert_eq!(c.dram_latency_cycles(), 100);
        assert_eq!(c.dram_service_cycles(), 13); // 64 B / 5 B-per-cycle
        assert_eq!(c.data_flits(), 9);
        assert_eq!(c.mesh.hop_latency, 2);
    }

    #[test]
    fn ooo_core_parameters() {
        let c = SimConfig::paper_ooo();
        assert_eq!(
            c.core,
            CoreModel::OutOfOrder {
                rob: 168,
                load_queue: 64,
                store_queue: 48
            }
        );
        assert_eq!(c.core.max_outstanding_misses(), 8);
        assert!(c.core.has_store_buffer());
        assert_eq!(CoreModel::InOrder.max_outstanding_misses(), 1);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn bad_cache_geometry_rejected() {
        CacheConfig {
            size_bytes: 192,
            associativity: 4,
            latency: 1,
        }
        .num_sets(64);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        SimConfig {
            num_cores: 0,
            ..SimConfig::default()
        }
        .validate();
    }
}
