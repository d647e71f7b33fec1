//! Traced calls into each public layer, plus the counters the per-layer
//! metrics are made of.
//!
//! A workload's op path calls some layers directly; the traced run also
//! re-runs the other layers on the same inputs (the op's snapshot and
//! query), so every layer is measured on every workload. Re-runs happen
//! between ops and never count in an end-to-end metric.

use crate::common::{push_tuples, reachable_values, PerRel, Radio};
use crate::trace::Tracer;
use sensjoin_core::persist::CheckpointStore;
use sensjoin_core::{
    exact_join, prejoin_filter, BatchStats, ContinuousSensJoin, JoinMethod, JoinOutcome, JoinSpace,
    SensJoin, SensJoinConfig, SensorNetwork, StreamJoinEngine, StreamOp,
};
use sensjoin_field::FieldSpec;
use sensjoin_quadtree::{Point, PointSet, RelFlags};
use sensjoin_query::{parse, CompiledQuery};
use sensjoin_relation::NodeId;
use sensjoin_serve::{DeploymentSpec, RejectReason, ServeConfig, Server, Submission, TenantId};
use sensjoin_sim::{RoutingTree, Topology};
use std::collections::BTreeMap;

/// Counters gathered by the traced run.
#[derive(Default)]
pub struct Counters {
    /// Radio cost of the traced query-epochs (the `sim.stats.*` metrics).
    pub radio: Radio,
    /// Node count of the network SENS-Join executed on.
    pub exec_nodes: usize,
    pub population_cells: Vec<f64>,
    pub filter_cells: Vec<f64>,
    /// Nodes whose tuple passed the reconstructed filter, and how many of
    /// them appear in the result.
    pub shipped: u64,
    pub contributors: u64,
    /// Ingest accounting per batch: candidates examined, and rows added or
    /// removed.
    pub ingest: Vec<(u64, u64)>,
    pub snapshot_bytes: Vec<f64>,
    pub serve: Option<ServeCounts>,
}

impl Counters {
    pub fn ingest_work(&mut self, candidates: u64, rows_changed: u64) {
        self.ingest.push((candidates, rows_changed));
    }
}

/// What the serving probe or workload observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounts {
    pub cache_hit_rate: f64,
    pub admitted: u64,
    pub refused: u64,
    pub epoch_latency_p99_ms: f64,
}

impl ServeCounts {
    pub fn of(server: &Server) -> Self {
        let m = server.metrics();
        Self {
            cache_hit_rate: m.cache_hit_rate(),
            admitted: m.totals.admitted,
            refused: m.totals.rejected(),
            epoch_latency_p99_ms: m.epoch_latency_us().p99() as f64 / 1e3,
        }
    }
}

/// `query.compile`: parse + compile against the network's catalog.
pub fn compile(tr: &mut Tracer, snet: &SensorNetwork, sql: &str) -> CompiledQuery {
    tr.span("query.compile", || {
        let q = parse(sql).expect("benchmark SQL parses");
        snet.compile(&q).expect("benchmark SQL compiles")
    })
}

/// `sim.topology_tree`: the neighbor graph and routing tree rebuilt from
/// the deployment's positions.
pub fn topology_tree(tr: &mut Tracer, snet: &SensorNetwork) {
    let topo = snet.net().topology();
    let positions: Vec<_> = topo.nodes().map(|v| topo.position(v)).collect();
    let (area, range, base) = (topo.area(), topo.range(), snet.base());
    tr.span("sim.topology_tree", || {
        let t = Topology::new(positions, area, range);
        std::hint::black_box(RoutingTree::build(&t, base));
    });
}

/// `field.resample`: a fresh snapshot of readings.
pub fn resample(tr: &mut Tracer, snet: &mut SensorNetwork, specs: &[FieldSpec], seed: u64) {
    tr.span("field.resample", || snet.resample(specs, seed));
}

/// `core.sensjoin.execute` on `snet`.
pub fn sensjoin(
    tr: &mut Tracer,
    c: &mut Counters,
    snet: &mut SensorNetwork,
    cq: &CompiledQuery,
) -> Result<JoinOutcome, String> {
    c.exec_nodes = snet.len();
    tr.span("core.sensjoin.execute", || {
        SensJoin::default().execute(snet, cq)
    })
    .map_err(|e| format!("SensJoin::execute failed: {e}"))
}

/// `core.engine.*`: the base station's calls re-run on reconstructed
/// inputs — every reachable node's cell as the collected population, the
/// pre-join filter over it, and the exact join over the tuples whose cell
/// passes the filter.
pub fn engine(tr: &mut Tracer, c: &mut Counters, snet: &SensorNetwork, cq: &CompiledQuery) {
    let space = tr.span("core.engine.space_build", || {
        JoinSpace::build(cq, snet, &SensJoinConfig::default())
    });
    let cells: Vec<(NodeId, Point, PerRel)> = reachable_values(snet, cq)
        .map(|(v, per_rel)| {
            let flags = (0..per_rel.len())
                .filter(|&r| per_rel[r].is_some())
                .fold(0u8, |f, r| f | space.flag(r).0);
            let z = space.encode(&space.dim_values(cq, &per_rel));
            let point = Point {
                z,
                flags: RelFlags(flags),
            };
            (v, point, per_rel)
        })
        .collect();
    let population = PointSet::from_points(cells.iter().map(|&(_, p, _)| p));
    let filter = tr.span("core.engine.prejoin", || {
        prejoin_filter(cq, &space, &population)
    });
    let mut shipped = vec![Vec::new(); cq.num_relations()];
    let mut shipped_nodes = 0u64;
    for (v, p, per_rel) in cells {
        if filter.contains_matching(p.z, p.flags) {
            shipped_nodes += 1;
            push_tuples(&mut shipped, v, per_rel);
        }
    }
    let joined = tr.span("core.engine.exact_join", || exact_join(cq, &shipped));
    c.population_cells.push(population.len() as f64);
    c.filter_cells.push(filter.len() as f64);
    c.shipped += shipped_nodes;
    c.contributors += joined.contributors.len() as u64;
}

/// A standalone streaming engine fed each snapshot's changed tuples.
pub struct IngestShadow {
    engine: StreamJoinEngine,
    last: BTreeMap<NodeId, PerRel>,
}

impl IngestShadow {
    pub fn new(cq: &CompiledQuery) -> Self {
        Self {
            engine: StreamJoinEngine::new(cq.clone()),
            last: BTreeMap::new(),
        }
    }

    /// `core.ingest.apply_batch` with the upserts (and expiries) that turn
    /// the engine's previous snapshot into `snet`'s.
    pub fn feed(&mut self, tr: &mut Tracer, snet: &SensorNetwork) -> BatchStats {
        let mut ops = Vec::new();
        let mut now = BTreeMap::new();
        for (v, per_rel) in reachable_values(snet, self.engine.query()) {
            if self.last.get(&v) != Some(&per_rel) {
                ops.push(StreamOp::Upsert {
                    origin: v,
                    per_rel: per_rel.clone(),
                });
            }
            now.insert(v, per_rel);
        }
        for &v in self.last.keys() {
            if !now.contains_key(&v) {
                ops.push(StreamOp::Expire { origin: v });
            }
        }
        self.last = now;
        tr.span("core.ingest.apply_batch", || self.engine.apply_batch(&ops))
    }
}

/// `core.continuous.round`: a cold continuous round on `snet`.
pub fn continuous_cold(
    tr: &mut Tracer,
    snet: &mut SensorNetwork,
    cq: &CompiledQuery,
) -> Result<(), String> {
    let mut cont = ContinuousSensJoin::new();
    tr.span("core.continuous.round", || cont.execute_round(snet, cq))
        .map(drop)
        .map_err(|e| format!("continuous round failed: {e}"))
}

/// `core.persist.*`: one WAL record and one snapshot of `payload`.
pub fn persist(
    tr: &mut Tracer,
    c: &mut Counters,
    store: &mut CheckpointStore,
    seq: u64,
    record: &[u8],
    payload: impl FnOnce() -> Vec<u8>,
) -> Result<(), String> {
    tr.span("core.persist.wal_append", || store.append_wal(record))
        .map_err(|e| format!("WAL append failed: {e}"))?;
    let bytes = tr.span("core.persist.snapshot_encode", payload);
    c.snapshot_bytes.push(bytes.len() as f64);
    tr.span("core.persist.snapshot_write", || {
        store.save_snapshot(seq, &bytes)
    })
    .map_err(|e| format!("snapshot write failed: {e}"))
}

/// `core.persist.recover`: reloads the newest snapshot and the WAL.
pub fn recover(tr: &mut Tracer, store: &CheckpointStore) -> Result<(), String> {
    match tr.span("core.persist.recover", || store.recover()) {
        Ok(rec) if rec.snapshot.is_some() && !rec.degraded => Ok(()),
        Ok(rec) => Err(format!(
            "recovery found no clean snapshot: degraded = {}",
            rec.degraded
        )),
        Err(e) => Err(format!("recovery failed: {e}")),
    }
}

/// The serving layer over a `nodes`-node deployment of `seed`: each SQL
/// string (continuous dialect) submitted by two tenants, so the second
/// admission of each is a plan-cache hit, then admitted and served for
/// `ticks` ticks.
pub fn serve(
    tr: &mut Tracer,
    c: &mut Counters,
    nodes: usize,
    seed: u64,
    sqls: &[String],
    ticks: usize,
) -> Result<(), String> {
    let mut server = Server::new(ServeConfig {
        max_groups: 1,
        queue_depth: 2 * sqls.len(),
        ..ServeConfig::default()
    });
    server
        .add_deployment(&DeploymentSpec::new("probe", nodes, seed))
        .map_err(|e| format!("deployment build failed: {e}"))?;
    for i in 0..2 * sqls.len() {
        server.submit(Submission {
            tenant: TenantId(i as u64),
            deployment: "probe".to_owned(),
            sql: sqls[i / 2].clone(),
            every: 1,
        });
    }
    let decisions = tr.span("serve.admit", || server.admit());
    if let Some(d) = decisions.iter().find(|d| {
        matches!(d, sensjoin_serve::Decision::Rejected { reason, .. }
            if *reason != RejectReason::DeploymentFull)
    }) {
        return Err(format!("serving probe refused a tenant: {d:?}"));
    }
    for _ in 0..ticks {
        tr.span("serve.tick", || server.tick())
            .map_err(|e| format!("serving probe tick failed: {e}"))?;
    }
    c.serve = Some(ServeCounts::of(&server));
    Ok(())
}

/// Every node's local tuples as one cold ingest batch (the `core.ingest`
/// reading of a one-shot query).
pub fn ingest_cold(tr: &mut Tracer, c: &mut Counters, snet: &SensorNetwork, cq: &CompiledQuery) {
    let stats = IngestShadow::new(cq).feed(tr, snet);
    c.ingest_work(
        stats.candidates as u64,
        (stats.rows_added + stats.rows_removed) as u64,
    );
}
