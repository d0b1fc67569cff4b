//! The two public front ends the benchmark drives, behind one interface:
//! a single-node `VolumeManager` and a multi-node `Cluster`.

use dr_cluster::{Cluster, ClusterConfig};
use dr_obs::{ObsHandle, Snapshot};
use dr_reduction::{PipelineConfig, Report, VolumeManager};

/// Name of the one volume every workload writes.
pub const VOLUME: &str = "bench";

/// Per-node simulated clocks sampled around a read call, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct NodeClock {
    /// When the node's last read completed.
    pub read_end: u64,
    /// When the node's last chunk finished reduction; a read is issued no
    /// earlier than this.
    pub reduction_end: u64,
}

/// What the benchmark needs from a front end. Errors are rendered to
/// strings: the benchmark only counts them.
pub trait Frontend {
    fn create_volume(&mut self, blocks: u64) -> Result<(), String>;
    fn write(&mut self, block: u64, data: &[u8]) -> Result<(), String>;
    fn read_batch(&mut self, blocks: &[u64]) -> Result<Vec<Vec<u8>>, String>;
    fn flush(&mut self) -> Result<(), String>;
    /// Clocks of every node, in node order.
    fn clocks(&self) -> Vec<NodeClock>;
    /// Final report of every node, in node order.
    fn reports(&self) -> Vec<Report>;
    /// Front-end dedup accounting: `(dedup_hits, chunks)`.
    fn dedup(&self) -> (u64, u64);
    /// Metrics with node-aggregated names (`compress.wall_ns`, not
    /// `node0.compress.wall_ns`); `None` when observability is off.
    fn snapshot(&self) -> Option<Snapshot>;
    /// Structural self-check after the run.
    fn integrity(&self) -> Result<(), String>;
}

fn clock(r: &Report) -> NodeClock {
    NodeClock {
        read_end: r.read_end.as_nanos(),
        reduction_end: r.reduction_end.as_nanos(),
    }
}

/// One `VolumeManager`, the paper's single array.
pub struct Volume {
    vm: VolumeManager,
}

impl Volume {
    pub fn new(config: PipelineConfig) -> Self {
        Volume {
            vm: VolumeManager::new(config),
        }
    }
}

impl Frontend for Volume {
    fn create_volume(&mut self, blocks: u64) -> Result<(), String> {
        self.vm
            .create_volume(VOLUME, blocks)
            .map_err(|e| e.to_string())
    }

    fn write(&mut self, block: u64, data: &[u8]) -> Result<(), String> {
        self.vm
            .write(VOLUME, block, data)
            .map_err(|e| e.to_string())
    }

    fn read_batch(&mut self, blocks: &[u64]) -> Result<Vec<Vec<u8>>, String> {
        self.vm
            .read_batch(VOLUME, blocks)
            .map_err(|e| e.to_string())
    }

    fn flush(&mut self) -> Result<(), String> {
        self.vm.pipeline_mut().flush().map_err(|e| e.to_string())
    }

    fn clocks(&self) -> Vec<NodeClock> {
        vec![clock(self.vm.report())]
    }

    fn reports(&self) -> Vec<Report> {
        vec![self.vm.report().clone()]
    }

    fn dedup(&self) -> (u64, u64) {
        let r = self.vm.report();
        (r.dedup_hits, r.chunks)
    }

    fn snapshot(&self) -> Option<Snapshot> {
        self.vm.pipeline().obs().snapshot()
    }

    fn integrity(&self) -> Result<(), String> {
        Ok(())
    }
}

/// A sharded cluster of `VolumeManager` nodes behind one router.
pub struct Tenants {
    cluster: Cluster,
}

impl Tenants {
    pub fn new(config: ClusterConfig) -> Self {
        Tenants {
            cluster: Cluster::new(config),
        }
    }
}

impl Frontend for Tenants {
    fn create_volume(&mut self, blocks: u64) -> Result<(), String> {
        self.cluster
            .create_volume(VOLUME, blocks)
            .map_err(|e| e.to_string())
    }

    fn write(&mut self, block: u64, data: &[u8]) -> Result<(), String> {
        self.cluster
            .write(VOLUME, block, data)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    fn read_batch(&mut self, blocks: &[u64]) -> Result<Vec<Vec<u8>>, String> {
        self.cluster
            .read_batch(VOLUME, blocks)
            .map_err(|e| e.to_string())
    }

    fn flush(&mut self) -> Result<(), String> {
        self.cluster.flush().map_err(|e| e.to_string())
    }

    fn clocks(&self) -> Vec<NodeClock> {
        self.cluster
            .node_ids()
            .into_iter()
            .filter_map(|id| self.cluster.node(id))
            .map(|n| clock(n.vm.report()))
            .collect()
    }

    fn reports(&self) -> Vec<Report> {
        self.cluster
            .report()
            .nodes
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }

    fn dedup(&self) -> (u64, u64) {
        let r = self.cluster.report();
        (r.dedup_hits, r.chunks)
    }

    fn snapshot(&self) -> Option<Snapshot> {
        // The rollup holds `cluster.<metric>` sums over nodes next to the
        // per-node names; keep the sums under the plain metric names.
        let rollup = self.cluster.rollup();
        let strip = |name: &str| name.strip_prefix("cluster.").map(str::to_owned);
        Some(Snapshot {
            name: rollup.name,
            counters: rollup
                .counters
                .into_iter()
                .filter_map(|(k, v)| strip(&k).map(|k| (k, v)))
                .collect(),
            gauges: rollup
                .gauges
                .into_iter()
                .filter_map(|(k, v)| strip(&k).map(|k| (k, v)))
                .collect(),
            histograms: rollup
                .histograms
                .into_iter()
                .filter_map(|(k, v)| strip(&k).map(|k| (k, v)))
                .collect(),
        })
    }

    fn integrity(&self) -> Result<(), String> {
        self.cluster.check_integrity()
    }
}

/// Observability for a round: off for timed rounds, on for traced ones.
pub fn obs_for(traced: Option<&dr_obs::Tracer>) -> ObsHandle {
    match traced {
        Some(tracer) => ObsHandle::enabled("perfbench").with_tracer(tracer.clone()),
        None => ObsHandle::disabled(),
    }
}
