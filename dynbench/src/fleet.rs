//! The `fleet_ota` workload: back-to-back staged OTA campaigns over a
//! million vehicles under the E15 `degraded` fault plan.
//!
//! A run cycles through [`CAMPAIGNS`] campaigns derived from the seed,
//! each timed as `UpdateMaster::new` + `run`, as a user runs it. The
//! traced run times the same call, and beside it calls the master's
//! public parts (shard pool, wave merge, SLO burn gate, outcome sort,
//! registry publish) from outside on the waves the campaign opened, so
//! each part gets a span without a copy of the master's loop.

use crate::inputs::{fleet_seed, FLEET_VEHICLES};
use crate::stats::Digest;
use crate::trace::Tracer;
use dynplat::common::rng::split_seed;
use dynplat::common::time::SimTime;
use dynplat::common::VehicleId;
use dynplat::faults::FaultPlan;
use dynplat::fleet::{
    simulate_vehicle, CampaignReport, CampaignSpec, ShardMetrics, ShardPool, UpdateMaster,
    VehicleVerdict,
};
use dynplat::monitor::SloBurnGate;
use dynplat::obs::{MetricsRegistry, Sketch};
use std::hint::black_box;
use std::sync::Arc;

/// Shards of the fleet (the box has two vCPUs).
pub const SHARDS: usize = 2;

/// Campaigns derived from one seed. A run cycles through all of them, so
/// every seed measures the same mix: on the degraded plan's lossy links
/// the SLO gate pages and halts about one campaign in ten, and each of
/// those halts is reported (`monitor.halts`, stderr), never skipped.
pub const CAMPAIGNS: u64 = 8;

/// The E15 `degraded` plan: lossy links, delay spikes, two partitions.
pub fn degraded_plan(seed: u64) -> Result<FaultPlan, String> {
    dynplat_bench::fleet::fleet_arms(seed)
        .into_iter()
        .find(|arm| arm.name == "degraded")
        .map(|arm| arm.plan)
        .ok_or_else(|| "E15 has no degraded arm".into())
}

/// The [`CAMPAIGNS`] campaigns of `seed`.
pub fn specs(seed: u64) -> Result<Vec<CampaignSpec>, String> {
    (0..CAMPAIGNS)
        .map(|k| {
            let s = split_seed(fleet_seed(seed), k);
            Ok(CampaignSpec::standard(s, FLEET_VEHICLES, degraded_plan(s)?))
        })
        .collect()
}

fn verdict_code(v: VehicleVerdict) -> u64 {
    match v {
        VehicleVerdict::RejectedFlash => 0,
        VehicleVerdict::Offline => 1,
        VehicleVerdict::Updated => 2,
        VehicleVerdict::VerifyFailed => 3,
        VehicleVerdict::WaveRolledBack => 4,
    }
}

fn sketch_digest(d: &mut Digest, s: &Sketch) {
    d.word(s.count());
    d.word(s.sum());
    for &(i, n) in s.nonzero_buckets() {
        d.word(u64::from(i));
        d.word(n);
    }
}

/// Digest of everything a campaign report holds.
pub fn report_digest(r: &CampaignReport) -> u64 {
    let mut d = Digest::default();
    d.word(r.seed);
    d.word(u64::from(r.vehicles));
    d.word(r.skipped);
    d.word(u64::from(r.halted));
    d.word(r.completed_at.as_nanos());
    for w in &r.waves {
        for x in [
            u64::from(w.index),
            u64::from(w.lo),
            u64::from(w.hi),
            w.admitted,
            w.rejected_flash,
            w.offline,
            w.updated,
            w.verify_failed,
            w.failure_rate.to_bits(),
            w.exceed.to_bits(),
            w.fast_burn_peak.to_bits(),
            w.slow_burn_peak.to_bits(),
            u64::from(w.promoted),
            w.rolled_back,
            w.started.as_nanos(),
            w.completed.as_nanos(),
        ] {
            d.word(x);
        }
    }
    let t = &r.totals;
    for x in [
        t.simulated,
        t.admitted,
        t.rejected_flash,
        t.offline,
        t.updated,
        t.verify_failed,
        t.retries,
        t.stall_ns,
    ] {
        d.word(x);
    }
    for s in [&t.download_ms, &t.finalize_ms, &t.stall_ms, &t.e2e_ms] {
        sketch_digest(&mut d, s);
    }
    for o in &r.outcomes {
        d.word(u64::from(o.vehicle.raw()));
        d.word(verdict_code(o.verdict));
        d.word(o.completed.as_nanos());
        d.word(u64::from(o.retries));
    }
    d.value()
}

/// Checks a report: vehicles conserved, outcomes sorted, every vehicle
/// either in the merged report or skipped by a halt. Returns the
/// vehicles missing from the merged report.
pub fn check(r: &CampaignReport) -> Result<u64, String> {
    if !r.totals.conserves() {
        return Err("shard metrics do not conserve vehicles".into());
    }
    if r.outcomes.windows(2).any(|w| w[0].vehicle >= w[1].vehicle) {
        return Err("merged outcomes are not sorted by vehicle".into());
    }
    let seen = r.outcomes.len() as u64 + r.skipped;
    Ok(u64::from(r.vehicles).saturating_sub(seen))
}

/// Simulated completion p99 in ms and the share of the fleet not updated
/// (vehicles skipped or rolled back by a halt count as not updated).
pub fn sim_figures(r: &CampaignReport) -> (f64, f64) {
    let ms = r.completion_ms_sorted();
    let p99 = if ms.is_empty() {
        0.0
    } else {
        ms[((ms.len() - 1) as f64 * 0.99).round() as usize] as f64
    };
    let not_updated = 1.0 - r.totals.updated as f64 / f64::from(r.vehicles);
    (p99, not_updated)
}

/// One campaign through the master, as a user runs it.
pub fn campaign(spec: &CampaignSpec, shards: usize) -> CampaignReport {
    UpdateMaster::new(spec.clone(), shards).run()
}

/// Calls the master's public parts from outside, each in a span, on the
/// waves `r` opened: spawn a shard pool, run and merge each wave, feed
/// the wave's verification verdicts to a fresh SLO burn gate in
/// completion-ordered batches, sort the outcomes. Checks that the parts
/// reproduce the report's totals, vehicles and gate verdicts.
pub fn parts(spec: &CampaignSpec, r: &CampaignReport, tr: &mut Tracer) -> Result<(), String> {
    let spec = Arc::new(spec.clone());
    let mut pool = tr.span("fleet.spawn", |_| {
        ShardPool::spawn(Arc::clone(&spec), SHARDS)
    });
    let mut gate = SloBurnGate::new(spec.gate.slo_spec());
    let mut totals = ShardMetrics::default();
    let mut outcomes = Vec::with_capacity(spec.vehicles as usize);
    let mut batches = Vec::new();
    for w in &r.waves {
        let (wave, metrics) = tr.span("fleet.wave", |_| {
            pool.run_wave(w.index, w.lo, w.hi, w.started)
        });
        tr.span("fleet.merge", |_| totals.merge(&metrics));
        let mut finished: Vec<(SimTime, bool)> = wave
            .iter()
            .filter(|o| o.admitted())
            .map(|o| (o.completed, o.verdict == VehicleVerdict::VerifyFailed))
            .collect();
        finished.sort_unstable_by_key(|&(at, failed)| (at, failed));
        batches.clear();
        for b in finished.chunks(spec.gate.batch.max(1)) {
            let bad = b.iter().filter(|&&(_, f)| f).count() as u64;
            batches.push((b[b.len() - 1].0, b.len() as u64 - bad, bad));
        }
        let tripped = tr.span("monitor.gate", |_| {
            gate.reset();
            let mut tripped = false;
            for &(at, good, bad) in &batches {
                tripped |= gate.observe(at, good, bad).tripped;
            }
            tripped
        });
        if tripped == w.promoted {
            return Err(format!(
                "the SLO gate fed from outside disagrees with the master on wave {}",
                w.index
            ));
        }
        outcomes.extend(wave);
    }
    tr.span("fleet.report_sort", |_| {
        outcomes.sort_unstable_by_key(|o| o.vehicle)
    });
    drop(pool);
    if totals != r.totals || !totals.conserves() {
        return Err("the merged wave metrics differ from the report's totals".into());
    }
    if outcomes.len() != r.outcomes.len()
        || outcomes
            .iter()
            .zip(&r.outcomes)
            .any(|(a, b)| a.vehicle != b.vehicle)
    {
        return Err("the waves run from outside reach other vehicles than the report".into());
    }
    Ok(())
}

/// Publishes a report into a fresh registry, as an operator dashboard
/// would.
pub fn publish(r: &CampaignReport, tr: &mut Tracer) {
    let registry = MetricsRegistry::new();
    tr.span("obs.publish", |_| r.publish(&registry));
    black_box(registry);
}

/// Host ns per vehicle of the per-vehicle kernel on one thread, over
/// `n` vehicles of the first wave.
pub fn vehicle_kernel(spec: &CampaignSpec, n: u32, tr: &mut Tracer) -> (u64, u64) {
    tr.span("fleet.vehicle", |_| {
        let t = std::time::Instant::now();
        let mut acc = 0u64;
        for v in 0..n.min(spec.vehicles) {
            let o = simulate_vehicle(spec, VehicleId(v), SimTime::ZERO);
            acc = acc.wrapping_add(o.completed.as_nanos());
        }
        black_box(acc);
        (
            t.elapsed().as_nanos() as u64,
            u64::from(n.min(spec.vehicles)),
        )
    })
}
