//! `oneshot_paper`: one-shot Q1-style joins on a ~10k-node network at the
//! paper's density, over one fixed snapshot.
//!
//! The query stream mixes `RangeQueryFamily::ratio_33` (one join attribute)
//! and `ratio_60` (three) two to one, with thresholds calibrated to 5 %
//! contributors on a 1500-node twin of the same seed over the same area
//! (calibration is quadratic in the node count) and jittered by ±1 %
//! per query so that no two ops share a plan. Op = parse + compile +
//! `SensJoin::execute`. The deployment (placement and readings) is fixed;
//! `--seed` drives the query stream.

use crate::common::{self, check_result, Budget, Cfg, Digest, Radio, Rng, MIN_OPS, SETUP_REPS};
use crate::probe::{self, Counters};
use crate::report::Outcome;
use crate::trace::Tracer;
use sensjoin_core::persist::{self as codec, CheckpointStore, Writer};
use sensjoin_core::workload::RangeQueryFamily;
use sensjoin_core::{SensorNetwork, SensorNetworkBuilder};
use sensjoin_field::{presets, Area, Placement};
use std::time::Instant;

const NODES: usize = 10_000;
const TWIN_NODES: usize = 1500;
const CONTRIBUTORS: f64 = 0.05;
/// Every third query is the three-attribute `ratio_60` family.
const RATIO_60_EVERY: usize = 3;
const JITTER: f64 = 0.01;
/// Seed of the deployment's placement and readings.
pub const DEPLOYMENT: u64 = 2009;
/// Every this many traced `ratio_33` ops also re-run the continuous layer
/// and rebuild the tree and field (the costliest re-runs).
const HEAVY_PROBE_EVERY: usize = 8;
/// Tenants of the serving re-run on the twin deployment.
const SERVE_TENANTS: usize = 16;

/// A `nodes`-node deployment at the paper's density.
pub fn network(nodes: usize, seed: u64) -> SensorNetwork {
    network_in(Area::for_constant_density(nodes), nodes, seed)
}

/// `nodes` nodes placed over `area`. Equal seeds give equal fields, so two
/// deployments over one area sample the same field at different points.
fn network_in(area: Area, nodes: usize, seed: u64) -> SensorNetwork {
    SensorNetworkBuilder::new()
        .area(area)
        .placement(Placement::UniformRandom { n: nodes })
        .fields(presets::indoor_climate())
        .seed(seed)
        .build()
        .expect("paper-density deployment builds")
}

/// Family of the `k`-th query: 0 is `ratio_33`, 1 is `ratio_60`.
fn family_of(k: usize) -> usize {
    usize::from(k % RATIO_60_EVERY == RATIO_60_EVERY - 1)
}

/// The calibrated query families: `(family, normalized threshold, sigmas)`.
struct Families(Vec<(RangeQueryFamily, f64, Vec<f64>)>);

impl Families {
    fn calibrate(twin: &SensorNetwork) -> Self {
        Self(
            [RangeQueryFamily::ratio_33(), RangeQueryFamily::ratio_60()]
                .into_iter()
                .map(|f| {
                    let cal = f.calibrate(twin, CONTRIBUTORS);
                    let sigmas = f.sigmas(twin);
                    (f, cal.normalized_threshold, sigmas)
                })
                .collect(),
        )
    }

    /// SQL of the `k`-th query of the stream.
    fn sql(&self, seed: u64, k: usize) -> String {
        let (family, c, sigmas) = &self.0[family_of(k)];
        let jitter = 1.0 + JITTER * (2.0 * Rng::new(common::sub_seed(seed, k as u64)).unit() - 1.0);
        let thresholds: Vec<f64> = sigmas.iter().map(|s| s * c * jitter).collect();
        family.sql(&thresholds)
    }
}

struct Setup {
    snet: SensorNetwork,
    families: Families,
}

/// Network build, twin calibration and the cold first op.
fn setup(seed: u64, tr: &mut Tracer, c: &mut Counters) -> Setup {
    // The twin spans the full network's area, so it samples the same field
    // over the same extent and its calibration carries over.
    let twin = network_in(Area::for_constant_density(NODES), TWIN_NODES, DEPLOYMENT);
    let families = Families::calibrate(&twin);
    let mut snet = network(NODES, DEPLOYMENT);
    let cq = probe::compile(tr, &snet, &families.sql(seed, 0));
    probe::sensjoin(tr, c, &mut snet, &cq).expect("cold first op runs");
    Setup { snet, families }
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::new("oneshot_paper");
    let mut tr = Tracer::new();
    let mut c = Counters::default();
    let mut st = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up is dropped first, so that set-ups never
        // overlap in memory.
        drop(st.take());
        let (s, secs) = common::timed(|| setup(cfg.seed, &mut tr, &mut c));
        out.setup_s.push(secs);
        st = Some(s);
    }
    let Setup { mut snet, families } = st.expect("at least one set-up");
    c = Counters::default();

    let store_dir = cfg
        .out_dir
        .join(format!("oneshot-store-{}", std::process::id()));
    let mut store = CheckpointStore::open(&store_dir).expect("checkpoint dir opens");
    let mut digest = Digest::new();
    let mut prefix = Radio::default();
    let mut response_us = 0u64;
    let mut contributors: [Vec<f64>; 2] = Default::default();
    let budget = Budget::new(cfg, MIN_OPS);
    let mut i = 0usize;
    while budget.more(i, out.timed_s) {
        let sql = families.sql(cfg.seed, i + 1);
        let traced = cfg.trace && i % 2 == 1;
        tr.set_op(i as u64);
        tr.set_on(traced);

        let t = Instant::now();
        tr.enter("bench.op");
        let cq = probe::compile(&mut tr, &snet, &sql);
        let res = probe::sensjoin(&mut tr, &mut c, &mut snet, &cq);
        tr.exit();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.set_on(false);
        out.record_op(ms, traced);
        out.attempted += 1;

        let outcome = match res {
            Ok(o) => o,
            Err(e) => {
                out.fail(i, e);
                i += 1;
                continue;
            }
        };
        contributors[family_of(i + 1)].push(outcome.contributor_fraction(snet.len()));
        if !outcome.complete {
            out.fail(i, "execution reported an incomplete result".into());
        } else if let Err(e) = check_result(&snet, &cq, &outcome.result, &outcome.contributors) {
            out.fail(i, e);
        } else {
            out.qe += 1;
        }
        if i < MIN_OPS {
            digest.result(&outcome.result);
            digest.stats(&outcome.stats);
            digest.u64(outcome.latency_us);
            prefix.add(&outcome.stats, 1);
            response_us += outcome.latency_us;
        }

        if traced {
            tr.set_on(true);
            tr.enter("bench.probe");
            c.radio.add(&outcome.stats, 1);
            probe::engine(&mut tr, &mut c, &snet, &cq);
            probe::ingest_cold(&mut tr, &mut c, &snet, &cq);
            let mut record = Writer::new();
            record.put_u64(i as u64);
            record.put_u64(digest.value());
            let record = record.into_bytes();
            let persisted =
                probe::persist(&mut tr, &mut c, &mut store, i as u64 + 1, &record, || {
                    let mut w = Writer::new();
                    codec::put_net_snapshot(&mut w, &snet.net().export_state());
                    w.into_bytes()
                });
            if let Err(e) = persisted {
                out.problem(e);
            }
            if family_of(i + 1) == 0 && (i / 2).is_multiple_of(HEAVY_PROBE_EVERY) {
                probe::topology_tree(&mut tr, &snet);
                let mut scratch = snet.clone();
                probe::resample(
                    &mut tr,
                    &mut scratch,
                    &presets::indoor_climate(),
                    cfg.seed ^ i as u64,
                );
                let mut scratch = snet.clone();
                if let Err(e) = probe::continuous_cold(&mut tr, &mut scratch, &cq) {
                    out.problem(e);
                }
            }
            tr.exit();
            tr.set_on(false);
        }
        i += 1;
    }
    out.peak_rss_mib = common::peak_rss_mib();
    out.finish_prefix(digest, prefix, response_us, MIN_OPS.min(i));
    out.notes.push(format!(
        "median contributor fraction: ratio_33 {:.4}, ratio_60 {:.4}",
        common::median(&contributors[0]),
        common::median(&contributors[1])
    ));

    if cfg.trace {
        tr.set_on(true);
        tr.set_op(i as u64);
        tr.enter("bench.probe");
        if let Err(e) = probe::recover(&mut tr, &store) {
            out.problem(e);
        }
        let sqls: Vec<String> = (1..=SERVE_TENANTS)
            .map(|k| {
                families
                    .sql(cfg.seed, k)
                    .replace(" ONCE", " SAMPLE PERIOD 30")
            })
            .collect();
        if let Err(e) = probe::serve(&mut tr, &mut c, TWIN_NODES, DEPLOYMENT, &sqls, 1) {
            out.problem(e);
        }
        tr.exit();
        tr.set_on(false);
        out.layers_from(&tr, &c);
        out.write_trace(cfg, &tr);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    out
}
