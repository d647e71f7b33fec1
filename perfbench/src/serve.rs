//! `serve_multitenant`: many tenants sharing a small deployment.
//!
//! One 250-node deployment holding one `QueryGroup` at its 64-query
//! capacity, plus four over-capacity submissions that must draw
//! `DeploymentFull`. Templates come from a 16-template pool with 50 % skew,
//! as in the `serve_throughput` bench. Op = `Server::tick`; each tick
//! serves 64 query-epochs. Sampled tenant-epochs are checked against an
//! exact join over the tick's snapshot. The deployment is fixed; `--seed`
//! jitters the template thresholds and picks the checked tenants.
//!
//! One deployment, not one per core: with two, each deployment's worker
//! thread fans out again inside `exact_join`, so a tick runs more threads
//! than a 2-vCPU host has cores. There the tick p50 of four runs of one
//! seed spread 17 % of its median (IQR) with two deployments and 5.5 %
//! with one.

use crate::common::{self, check_result, Budget, Cfg, Digest, Radio, Rng, MIN_OPS, SETUP_REPS};
use crate::probe::{self, Counters, ServeCounts};
use crate::report::Outcome;
use crate::trace::Tracer;
use sensjoin_core::persist::{CheckpointStore, Writer};
use sensjoin_field::presets;
use sensjoin_serve::{
    Decision, DeploymentId, DeploymentSpec, RejectReason, ServeConfig, Server, Submission,
    TenantId, TickReport,
};
use sensjoin_sim::NetworkStats;
use std::time::Instant;

const NODES: usize = 250;
const DEPLOYMENTS: usize = 1;
const PER_DEPLOYMENT: usize = 64;
const OVER_CAPACITY: usize = 4;
const TENANTS: usize = DEPLOYMENTS * (PER_DEPLOYMENT + OVER_CAPACITY);
const ADMITTED: usize = DEPLOYMENTS * PER_DEPLOYMENT;
const TEMPLATE_POOL: usize = 16;
const SKEW: f64 = 0.5;
/// Seed of the first deployment (any further one uses the next seed).
const DEPLOYMENT: u64 = 11;
/// Template thresholds are jittered by up to this much either way.
const JITTER: f64 = 0.1;
/// Tenant-epochs checked against the oracle per tick.
const CHECKED_PER_TICK: usize = 2;

/// Template of tenant `i` (as in `serve_throughput`): the hottest template
/// with probability `SKEW`, else uniform over the rest of the pool, keyed
/// on the round-robin round so every deployment sees the same mix.
fn template(i: usize) -> usize {
    let r = i / DEPLOYMENTS;
    let hot = ((r + 1) as f64 * SKEW).floor() > (r as f64 * SKEW).floor();
    if hot {
        0
    } else {
        1 + r % (TEMPLATE_POOL - 1)
    }
}

/// SQL of tenant `i`: tenants of one template share it verbatim, so the
/// plan cache can serve them.
fn sql(seed: u64, i: usize) -> String {
    let t = template(i);
    let jitter = JITTER * (2.0 * Rng::new(common::sub_seed(seed, t as u64)).unit() - 1.0);
    format!(
        "SELECT A.hum, B.hum FROM Sensors A, Sensors B \
         WHERE A.temp - B.temp > {:.3} SAMPLE PERIOD 30",
        2.0 + 0.25 * t as f64 + jitter
    )
}

fn deployment(d: usize) -> DeploymentSpec {
    DeploymentSpec::new(format!("dep{d}"), NODES, DEPLOYMENT + d as u64)
}

/// Server build, submissions, admission and the cold first tick.
fn setup(seed: u64, tr: &mut Tracer) -> Result<(Server, TickReport), String> {
    let mut server = Server::new(ServeConfig {
        max_groups: 1,
        queue_depth: TENANTS,
        ..ServeConfig::default()
    });
    for d in 0..DEPLOYMENTS {
        server
            .add_deployment(&deployment(d))
            .map_err(|e| format!("deployment build failed: {e}"))?;
    }
    for i in 0..TENANTS {
        if let Some(d) = server.submit(Submission {
            tenant: TenantId(i as u64),
            deployment: format!("dep{}", i % DEPLOYMENTS),
            sql: sql(seed, i),
            every: 1,
        }) {
            return Err(format!("submission refused on arrival: {d:?}"));
        }
    }
    let decisions = tr.span("serve.admit", || server.admit());
    check_admission(&decisions)?;
    let cold = server
        .tick()
        .map_err(|e| format!("cold tick failed: {e}"))?;
    Ok((server, cold))
}

/// The first `ADMITTED` submissions fill both groups; the rest are refused
/// with `DeploymentFull`.
fn check_admission(decisions: &[Decision]) -> Result<(), String> {
    if decisions.len() != TENANTS {
        return Err(format!(
            "{} decisions for {TENANTS} submissions",
            decisions.len()
        ));
    }
    for d in decisions {
        let i = d.tenant().0 as usize;
        let ok = match d {
            Decision::Admitted { .. } => i < ADMITTED,
            Decision::Rejected { reason, .. } => {
                i >= ADMITTED && *reason == RejectReason::DeploymentFull
            }
        };
        if !ok {
            return Err(format!("unexpected admission decision: {d:?}"));
        }
    }
    Ok(())
}

/// Each deployment's epoch statistics of the last tick (one group each).
fn tick_stats(server: &Server) -> Vec<NetworkStats> {
    (0..DEPLOYMENTS)
        .map(|d| server.network(DeploymentId(d)).net().stats().clone())
        .collect()
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut out = Outcome::new("serve_multitenant");
    let mut tr = Tracer::new();
    let mut c = Counters::default();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        // The previous set-up is dropped first, so that set-ups never
        // overlap in memory.
        drop(server.take());
        // Set-up spans get op ids of their own, past any timed op's.
        tr.set_op(u64::MAX - rep as u64);
        tr.set_on(cfg.trace);
        let (s, secs) = common::timed(|| setup(cfg.seed, &mut tr));
        tr.set_on(false);
        out.setup_s.push(secs);
        match s {
            Ok((s, _)) => server = Some(s),
            Err(e) => {
                out.problem(e);
                return out;
            }
        }
    }
    let mut server = server.expect("at least one set-up");

    let store_dir = cfg
        .out_dir
        .join(format!("serve-store-{}", std::process::id()));
    let mut store = CheckpointStore::open(&store_dir).expect("checkpoint dir opens");
    let specs = presets::indoor_climate();
    let mut rng = Rng::new(common::sub_seed(cfg.seed, 0x5e7e));
    let mut digest = Digest::new();
    let mut prefix = Radio::default();
    let mut prefix_latency_us = None;
    let budget = Budget::new(cfg, MIN_OPS);
    let mut i = 0usize;
    while budget.more(i, out.timed_s) {
        let traced = cfg.trace && i % 2 == 1;
        tr.set_op(i as u64);
        tr.set_on(traced);
        let t = Instant::now();
        tr.enter("bench.op");
        let res = tr.span("serve.tick", || server.tick());
        tr.exit();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.set_on(false);
        out.record_op(ms, traced);
        out.attempted += 1;

        let report = match res {
            Ok(r) => r,
            Err(e) => {
                out.fail(i, format!("tick failed: {e}"));
                i += 1;
                continue;
            }
        };
        out.refused_qe += (TENANTS - ADMITTED) as u64;
        let stats = tick_stats(&server);
        let sampled: Vec<usize> = (0..CHECKED_PER_TICK)
            .map(|_| (rng.next_u64() % report.epochs.len().max(1) as u64) as usize)
            .collect();
        let mut verdict = if report.epochs.len() != ADMITTED {
            Err(format!(
                "{} tenant-epochs, want {ADMITTED}",
                report.epochs.len()
            ))
        } else if let Some(e) = report.epochs.iter().find(|e| !e.complete) {
            Err(format!("tenant {} epoch incomplete", e.tenant))
        } else {
            Ok(())
        };
        for &k in &sampled {
            let Some(e) = report.epochs.get(k) else { break };
            let snet = server.network(e.deployment);
            let cq = probe::compile(&mut tr, snet, &sql(cfg.seed, e.tenant.0 as usize));
            if verdict.is_ok() {
                verdict = check_result(snet, &cq, &e.outcome.result, &e.outcome.contributors)
                    .map_err(|m| format!("tenant {}: {m}", e.tenant));
            }
        }
        tr.set_on(traced);
        tr.enter("bench.probe");
        // The layer re-runs use the first sampled tenant only, so every
        // per-layer time is one call, as on the other workloads.
        if let Some(e) = report.epochs.get(sampled[0]).filter(|_| traced) {
            let snet = server.network(e.deployment);
            let cq = probe::compile(&mut tr, snet, &sql(cfg.seed, e.tenant.0 as usize));
            probe::engine(&mut tr, &mut c, snet, &cq);
            probe::ingest_cold(&mut tr, &mut c, snet, &cq);
            let mut scratch = snet.clone();
            if let Err(e) = probe::sensjoin(&mut tr, &mut c, &mut scratch, &cq) {
                out.problem(e);
            }
            let mut scratch = snet.clone();
            if let Err(e) = probe::continuous_cold(&mut tr, &mut scratch, &cq) {
                out.problem(e);
            }
        }
        if traced {
            for s in &stats {
                c.radio.add(s, PER_DEPLOYMENT as u64);
            }
            let snet = server.network(DeploymentId(0));
            probe::topology_tree(&mut tr, snet);
            let mut scratch = snet.clone();
            probe::resample(&mut tr, &mut scratch, &specs, cfg.seed ^ i as u64);
            let mut record = Writer::new();
            record.put_u64(i as u64);
            record.put_u64(digest.value());
            if let Err(e) = probe::persist(
                &mut tr,
                &mut c,
                &mut store,
                i as u64 + 1,
                &record.into_bytes(),
                || server.export_state(),
            ) {
                out.problem(e);
            }
        }
        tr.exit();
        tr.set_on(false);
        match verdict {
            Ok(()) => out.qe += report.epochs.len() as u64,
            Err(e) => out.fail(i, e),
        }
        if i < MIN_OPS {
            for e in &report.epochs {
                digest.u64(e.tenant.0);
                digest.result(&e.outcome.result);
                digest.u64(e.outcome.contributors.len() as u64);
            }
            for s in &stats {
                digest.stats(s);
                prefix.add(s, PER_DEPLOYMENT as u64);
            }
            if i + 1 == MIN_OPS {
                prefix_latency_us = Some(server.metrics().epoch_latency_us().mean());
            }
        }
        i += 1;
    }
    out.peak_rss_mib = common::peak_rss_mib();
    // Every tenant-epoch of a tick shares its group's epoch latency, so the
    // histogram's mean over epochs is the mean over query-epochs. (Its
    // quantiles are log2-bucketed, too coarse for a metric.)
    let latency_us =
        prefix_latency_us.unwrap_or_else(|| server.metrics().epoch_latency_us().mean());
    digest.u64(latency_us);
    out.finish_prefix(digest, prefix, 0, MIN_OPS.min(i));
    out.sim_response_s = latency_us as f64 / 1e6;

    if cfg.trace {
        tr.set_on(true);
        tr.set_op(i as u64);
        tr.enter("bench.probe");
        if let Err(e) = probe::recover(&mut tr, &store) {
            out.problem(e);
        }
        tr.exit();
        tr.set_on(false);
        c.serve = Some(ServeCounts::of(&server));
        out.layers_from(&tr, &c);
        out.write_trace(cfg, &tr);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    out
}
