//! `dynbench`: the dynplat benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path dynbench/Cargo.toml -- \
//!     --workload adas_tsn --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process runs one workload closed-loop for `--seconds`, checks its
//! outputs, and prints one JSON object as the last line of stdout: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`. `dynbench/README.md` describes
//! the workloads and every metric.

mod adas;
mod fleet;
mod inputs;
mod speed;
mod stats;
mod trace;

use adas::{Backbone, WindowOut, WindowScratch};
use dynplat::common::AppId;
use dynplat::fleet::{CampaignReport, UpdateMaster};
use stats::{median, tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{self_time_by_layer, self_time_per_step, Tracer};

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("step_p50_ms", "ms"),
    ("step_tail_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("sim_miss_ratio", "ratio"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// the workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("model.parse_ms", "ms"),
    ("model.verify_ms", "ms"),
    ("dse.explore_ms", "ms"),
    ("dse.evaluations", "count"),
    ("model.generate_ms", "ms"),
    ("sched.tt_synth_ms", "ms"),
    ("sched.rta_ms", "ms"),
    ("security.verify_ms", "ms"),
    ("security.bytes_hashed", "bytes"),
    ("core.deploy_ms", "ms"),
    ("hw.route_build_ms", "ms"),
    ("net.tsn_ns_per_frame", "ns"),
    ("net.tsn_queue_max", "frames"),
    ("net.tsn_window_share_pct", "%"),
    ("net.eth_ns_per_frame", "ns"),
    ("net.can_ns_per_frame", "ns"),
    ("net.flexray_ns_per_frame", "ns"),
    ("hw.route_lookup_ns", "ns"),
    ("comm.stream_ms", "ms"),
    ("comm.rpc_ms", "ms"),
    ("comm.event_ms", "ms"),
    ("comm.deliveries", "count"),
    ("comm.ring_spills", "count"),
    ("comm.slab_peak", "count"),
    ("sched.dispatch_ms", "ms"),
    ("sched.jobs", "count"),
    ("fleet.spawn_ms", "ms"),
    ("fleet.vehicle_ns", "ns"),
    ("fleet.wave_ms", "ms"),
    ("fleet.merge_ms", "ms"),
    ("fleet.report_sort_ms", "ms"),
    ("monitor.gate_ms", "ms"),
    ("obs.publish_ms", "ms"),
    ("fleet.waves_opened", "count"),
    ("fleet.storm", "count"),
    ("monitor.halts", "count"),
    ("trace_overhead_pct", "%"),
    ("share.model_pct", "%"),
    ("share.dse_pct", "%"),
    ("share.sched_pct", "%"),
    ("share.security_pct", "%"),
    ("share.core_pct", "%"),
    ("share.hw_pct", "%"),
    ("share.net_pct", "%"),
    ("share.comm_pct", "%"),
    ("share.obs_pct", "%"),
    ("share.monitor_pct", "%"),
    ("share.fleet_pct", "%"),
    ("share.bench_pct", "%"),
];

/// Bring-ups per untraced ADAS run: the cold one plus repeats spread
/// evenly over the run.
const SETUPS: u32 = 7;
/// Bring-ups in the traced phase.
const TRACED_SETUPS: u64 = 3;
/// Untimed windows after the cold bring-up, while the fabric's buffers
/// grow to their working size.
const WARMUP_WINDOWS: usize = 3;
/// Traced windows at most, which bounds the span file (~15 spans each).
const TRACED_WINDOWS: u64 = 4_000;
/// Windows whose reference probes normalise each window.
const REFERENCE_SPAN: usize = 9;
/// Reference-kernel runs before and after each bring-up.
const SETUP_PROBES: usize = 8;
/// Reference-kernel runs between two fleet campaigns.
const CAMPAIGN_PROBES: usize = 8;
/// Vehicles timed on one thread for `fleet.vehicle_ns`, per campaign.
const KERNEL_VEHICLES: u32 = 20_000;
/// Step ids of bring-up spans start here, clear of the window ids.
const SETUP_STEP: u64 = 1 << 40;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
        }
    }

    fn fail(&mut self, why: &str) {
        eprintln!("check failed: {why}");
        self.correct = false;
    }

    fn set(&mut self, name: &'static str, value: f64) {
        if !value.is_finite() {
            self.fail(&format!("{name} is not a finite number"));
        }
        self.metrics.insert(name, value);
    }

    fn to_json(&self, names: &[(&'static str, &'static str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of per-step ns, in ms.
fn median_ms(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&x| x as f64).collect::<Vec<_>>()) / 1e6
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The window results of one phase.
#[derive(Default)]
struct Windows {
    /// Raw host seconds per window.
    raw: Vec<f64>,
    /// Reference-kernel seconds after each window.
    reference: Vec<f64>,
    deliveries: u64,
    sends: u64,
    undelivered: u64,
    instances: u64,
    incomplete: u64,
    misses: u64,
    chain_ns: Vec<u64>,
    jobs: u64,
    digest: Option<u64>,
}

impl Windows {
    /// Records a window that took `raw` host seconds, with the reference
    /// kernel taking `reference` seconds right after it.
    fn add(&mut self, out: &WindowOut, raw: f64, reference: f64, o: &mut Outcome) {
        match self.digest {
            None => {
                self.digest = Some(out.digest);
                self.chain_ns = out.chain_ns.clone();
            }
            Some(d) if d != out.digest => {
                o.fail("a window's delivery digest differs from the first")
            }
            Some(_) => {}
        }
        self.raw.push(raw);
        self.reference.push(reference);
        self.deliveries += out.deliveries;
        self.sends += out.sends;
        self.undelivered += out.undelivered;
        self.instances += inputs::CHAIN_INSTANCES as u64;
        self.incomplete += out.incomplete;
        self.misses += out.misses;
        self.jobs += out.jobs;
    }

    /// Host seconds per window at nominal host speed. Each window is
    /// divided by the median of the probes taken after the
    /// [`REFERENCE_SPAN`] windows around it: a few ms of host time, well
    /// inside one load phase, and free of the noise of a single probe.
    fn norm(&self) -> Vec<f64> {
        let n = self.raw.len();
        (0..n)
            .map(|i| {
                let lo = i.saturating_sub(REFERENCE_SPAN / 2);
                let hi = (lo + REFERENCE_SPAN).min(n);
                speed::normalise(self.raw[i], median(&self.reference[lo..hi]))
            })
            .collect()
    }
}

/// One bring-up, timed between reference probes; returns the platform
/// and its host seconds at nominal speed.
fn timed_bring_up(
    reference: &speed::Reference,
    inputs: &inputs::AdasInputs,
    images: &BTreeMap<AppId, Vec<u8>>,
    backbone: Backbone,
    tr: &mut Tracer,
) -> Result<(adas::Platform, f64), String> {
    let before = reference.probe_median(SETUP_PROBES);
    let t = Instant::now();
    let p = adas::bring_up(inputs, images, backbone, tr)?;
    let secs = t.elapsed().as_secs_f64();
    let after = reference.probe_median(SETUP_PROBES);
    Ok((p, speed::normalise(secs, (before + after) / 2.0)))
}

fn run_adas(backbone: Backbone, a: &Args) -> Result<Outcome, String> {
    let mut o = Outcome::new();
    let reference = speed::Reference::start();
    let inputs = inputs::adas(a.seed);
    let images = adas::images(&inputs)?;
    let mut off = Tracer::new(false);
    let run = Duration::from_secs(a.seconds);
    let t0 = Instant::now();

    let (mut plat, cold) = timed_bring_up(&reference, &inputs, &images, backbone, &mut off)?;
    let mut setups = vec![cold];
    let design = plat.design;
    let mut scratch = WindowScratch::default();
    let mut warm = Windows::default();
    for _ in 0..WARMUP_WINDOWS {
        let out = adas::window(&mut plat, &inputs, &mut scratch, &mut off)?;
        warm.add(&out, 1.0, 1.0, &mut o);
    }

    // Untraced windows. With --trace 0 the bring-up repeats at even
    // intervals; with --trace 1 this phase is the base of the overhead.
    let mut untraced = Windows::default();
    let untraced_end = if a.trace { run * 2 / 5 } else { run };
    let mut next_setup = 1;
    while t0.elapsed() < untraced_end {
        if !a.trace && next_setup < SETUPS && t0.elapsed() >= run * next_setup / SETUPS {
            next_setup += 1;
            let (again, secs) = timed_bring_up(&reference, &inputs, &images, backbone, &mut off)?;
            setups.push(secs);
            if again.design != design {
                o.fail("a repeated bring-up chose another design");
            }
            continue;
        }
        let t = Instant::now();
        let out = adas::window(&mut plat, &inputs, &mut scratch, &mut off)?;
        let raw = t.elapsed().as_secs_f64();
        untraced.add(&out, raw, reference.probe(), &mut o);
    }
    if untraced.raw.is_empty() {
        return Err("no window completed within --seconds".into());
    }
    if untraced.digest != warm.digest {
        o.fail("timed windows differ from the warm-up windows");
    }
    let norm = untraced.norm();
    let (tail_norm, tail_label) = tail(&norm);
    eprintln!(
        "{} windows ({tail_label}), {} bring-ups; raw window p50 {:.4} ms, p10 {:.4} ms; reference kernel p50 {:.4} ms; at nominal speed p50 {:.4} ms",
        untraced.raw.len(),
        setups.len(),
        median(&untraced.raw) * 1e3,
        stats::quantile(&untraced.raw, 0.1) * 1e3,
        median(&untraced.reference) * 1e3,
        median(&norm) * 1e3,
    );

    let mut phases = vec![warm, untraced];
    if a.trace {
        let traced = adas_traced(
            &reference,
            &inputs,
            &images,
            backbone,
            a,
            &mut plat,
            &mut scratch,
            t0,
            &mut o,
        )?;
        if traced.design != design {
            o.fail("a traced bring-up chose another design");
        }
        if traced.windows.digest != phases[1].digest {
            o.fail("traced windows differ from untraced windows");
        }
        let base = median(&norm);
        o.set(
            "trace_overhead_pct",
            (median(&traced.windows.norm()) / base - 1.0) * 100.0,
        );
        // Arbiter time of one window's frames against the window's host
        // time, both from the traced phase.
        o.set(
            "net.tsn_window_share_pct",
            traced.tsn_ns_per_window / (median(&traced.windows.raw) * 1e9) * 100.0,
        );
        o.metrics.extend(traced.metrics);
        phases.push(traced.windows);
    } else {
        let u = &phases[1];
        let chain: Vec<f64> = u.chain_ns.iter().map(|&n| n as f64).collect();
        let (deliveries, norm_total) = (u.deliveries, norm.iter().sum::<f64>());
        let (p50, misses) = (median(&norm), ratio(u.misses, u.instances));
        o.set("setup_s", median(&setups));
        o.set("throughput_per_s", deliveries as f64 / norm_total);
        o.set("step_p50_ms", p50 * 1e3);
        o.set("step_tail_ms", tail_norm * 1e3);
        o.set("sim_p99_ms", stats::quantile(&chain, 0.99) / 1e6);
        o.set("sim_miss_ratio", misses);
        o.set("peak_rss_mb", peak_rss_mb());
    }
    for w in &phases {
        o.attempted += w.sends + w.instances;
        o.failed += w.undelivered + w.incomplete;
    }
    if o.failed > 0 {
        o.fail("messages or chain instances never completed");
    }
    Ok(o)
}

/// What the traced ADAS phase measured.
struct AdasTraced {
    windows: Windows,
    design: u64,
    tsn_ns_per_window: f64,
    metrics: BTreeMap<&'static str, f64>,
}

#[allow(clippy::too_many_arguments)]
fn adas_traced(
    reference: &speed::Reference,
    inputs: &inputs::AdasInputs,
    images: &BTreeMap<AppId, Vec<u8>>,
    backbone: Backbone,
    a: &Args,
    plat: &mut adas::Platform,
    scratch: &mut WindowScratch,
    t0: Instant,
    o: &mut Outcome,
) -> Result<AdasTraced, String> {
    let mut tr = Tracer::new(true);
    let mut last = None;
    for i in 0..TRACED_SETUPS {
        tr.set_step(SETUP_STEP + i);
        last = Some(tr.span("setup", |tr| adas::bring_up(inputs, images, backbone, tr))?);
    }
    let last = last.ok_or("no traced bring-up")?;
    let spills = adas::ring_spills();
    let mut windows = Windows::default();
    let mut replays = adas::Replay::default();
    let run = Duration::from_secs(a.seconds);
    let mut step = 0;
    while step < TRACED_WINDOWS && (step == 0 || t0.elapsed() < run) {
        tr.set_step(step);
        let t = Instant::now();
        let out = tr.span("window", |tr| adas::window(plat, inputs, scratch, tr))?;
        let raw = t.elapsed().as_secs_f64();
        windows.add(&out, raw, reference.probe(), o);
        replays.add(&tr.span("replay", |tr| adas::replay(plat, scratch, tr, backbone))?);
        step += 1;
    }
    let n = windows.raw.len() as f64;
    let spans = tr.spans();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (metric, span) in [
        ("model.parse_ms", "model.parse"),
        ("model.verify_ms", "model.verify"),
        ("dse.explore_ms", "dse.explore"),
        ("model.generate_ms", "model.generate"),
        ("sched.tt_synth_ms", "sched.tt_synth"),
        ("sched.rta_ms", "sched.rta"),
        ("security.verify_ms", "security.verify"),
        ("core.deploy_ms", "core.deploy"),
        ("hw.route_build_ms", "hw.route_build"),
        ("comm.stream_ms", "comm.stream"),
        ("comm.rpc_ms", "comm.rpc"),
        ("comm.event_ms", "comm.event"),
        ("sched.dispatch_ms", "sched.dispatch"),
    ] {
        m.insert(metric, median_ms(&self_time_per_step(spans, span)));
    }
    m.insert("dse.evaluations", last.evaluations as f64);
    m.insert("security.bytes_hashed", last.bytes_hashed as f64);
    m.insert("net.tsn_ns_per_frame", ratio(replays.tsn.0, replays.tsn.1));
    m.insert("net.tsn_queue_max", replays.tsn_queue_max as f64);
    m.insert("net.eth_ns_per_frame", ratio(replays.eth.0, replays.eth.1));
    m.insert("net.can_ns_per_frame", ratio(replays.can.0, replays.can.1));
    m.insert(
        "net.flexray_ns_per_frame",
        ratio(replays.flexray.0, replays.flexray.1),
    );
    m.insert(
        "hw.route_lookup_ns",
        ratio(replays.route.0, replays.route.1),
    );
    m.insert("comm.deliveries", windows.deliveries as f64 / n);
    m.insert(
        "comm.ring_spills",
        (adas::ring_spills() - spills) as f64 / n,
    );
    m.insert("comm.slab_peak", adas::slab_peak(plat) as f64);
    m.insert("sched.jobs", windows.jobs as f64 / n);
    insert_shares(&mut m, spans, "window");
    write_trace(&tr, a);
    eprintln!(
        "traced: {} windows, {TRACED_SETUPS} bring-ups, {} spans",
        windows.raw.len(),
        spans.len()
    );
    Ok(AdasTraced {
        tsn_ns_per_window: replays.tsn.0 as f64 / n,
        design: last.design,
        windows,
        metrics: m,
    })
}

/// `share.<layer>_pct`: each layer's share of self time in the trees
/// rooted at `root` spans.
fn insert_shares(m: &mut BTreeMap<&'static str, f64>, spans: &[trace::Span], root: &str) {
    let by_layer = self_time_by_layer(spans, root);
    let total: u64 = by_layer.values().sum();
    for &(metric, _) in PER_LAYER {
        if let Some(layer) = metric
            .strip_prefix("share.")
            .and_then(|r| r.strip_suffix("_pct"))
        {
            let t = by_layer.get(layer).copied().unwrap_or(0);
            m.insert(metric, ratio(t, total) * 100.0);
        }
    }
}

/// Writes the spans under the build directory.
fn write_trace(tr: &Tracer, a: &Args) {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()),
    )
    .join("dynbench-traces");
    let path = dir.join(format!("{}-s{}.json", a.workload, a.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.to_json(&a.workload, a.seed)))
    {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// Checks every campaign report and that each one equals the first
/// report of the same campaign.
struct ReportCheck {
    digests: Vec<Option<u64>>,
    /// Per campaign: simulated completion p99 (ms), share not updated.
    sim: Vec<(f64, f64)>,
    halted: Vec<bool>,
    waves: Vec<usize>,
    storm: Vec<u64>,
}

impl ReportCheck {
    fn new(campaigns: usize) -> Self {
        ReportCheck {
            digests: vec![None; campaigns],
            sim: vec![(0.0, 0.0); campaigns],
            halted: vec![false; campaigns],
            waves: vec![0; campaigns],
            storm: vec![0; campaigns],
        }
    }

    fn check(&mut self, k: usize, r: &CampaignReport, o: &mut Outcome) {
        o.attempted += u64::from(r.vehicles);
        match fleet::check(r) {
            Ok(missing) => o.failed += missing,
            Err(e) => o.fail(&e),
        }
        let d = fleet::report_digest(r);
        match self.digests[k] {
            None => {
                self.digests[k] = Some(d);
                self.sim[k] = fleet::sim_figures(r);
                self.halted[k] = r.halted;
                self.waves[k] = r.waves.len();
                self.storm[k] = r.storm_total();
                if r.halted {
                    eprintln!(
                        "campaign {k} (seed {:#x}): the SLO gate halted wave {} of 4",
                        r.seed,
                        r.waves.len()
                    );
                }
            }
            Some(first) if first != d => {
                o.fail(&format!("campaign {k}'s report differs from its first run"))
            }
            Some(_) => {}
        }
    }

    /// Median over the campaigns of a per-campaign figure.
    fn median_of(&self, f: impl Fn(usize) -> f64) -> f64 {
        median(&(0..self.digests.len()).map(f).collect::<Vec<_>>())
    }
}

/// One fleet step: a campaign timed between reference probes taken while
/// no shard thread runs. Returns the report, the host seconds of
/// `UpdateMaster::new` and of `new` + `run`, and the probe after it.
fn timed_campaign(
    reference: &speed::Reference,
    spec: &dynplat::fleet::CampaignSpec,
    before: f64,
) -> (CampaignReport, f64, f64, f64) {
    let t = Instant::now();
    let master = UpdateMaster::new(spec.clone(), fleet::SHARDS);
    let setup = t.elapsed().as_secs_f64();
    let report = master.run();
    let total = t.elapsed().as_secs_f64();
    let after = reference.probe_median(CAMPAIGN_PROBES);
    let kernel = (before + after) / 2.0;
    (
        report,
        speed::normalise(setup, kernel),
        speed::normalise(total, kernel),
        after,
    )
}

fn run_fleet(a: &Args) -> Result<Outcome, String> {
    let mut o = Outcome::new();
    let specs = fleet::specs(a.seed)?;
    let mut reports = ReportCheck::new(specs.len());
    let run = Duration::from_secs(a.seconds);
    let t0 = Instant::now();

    // Untraced campaigns, back to back, cycling through the seed's
    // campaigns; every campaign runs at least once.
    let (mut setups, mut secs, mut simulated) = (Vec::new(), Vec::new(), 0u64);
    let mut probes = Vec::new();
    let untraced_end = if a.trace { run * 2 / 5 } else { run };
    let reference = speed::Reference::start();
    let mut probe = reference.probe_median(CAMPAIGN_PROBES);
    let mut step = 0;
    while step < specs.len() || t0.elapsed() < untraced_end {
        let k = step % specs.len();
        let (report, setup, total, after) = timed_campaign(&reference, &specs[k], probe);
        probe = after;
        probes.push(after);
        setups.push(setup);
        secs.push(total);
        simulated += report.totals.simulated;
        reports.check(k, &report, &mut o);
        step += 1;
    }
    let halts = reports.halted.iter().filter(|&&h| h).count();
    let (tail_secs, tail_label) = tail(&secs);
    eprintln!(
        "{} campaigns ({tail_label}), {halts} of {} halted by the SLO gate; at nominal speed p50 {:.4} ms; reference kernel p50 {:.4} ms",
        secs.len(),
        specs.len(),
        median(&secs) * 1e3,
        median(&probes) * 1e3
    );
    if !a.trace {
        o.set("setup_s", median(&setups));
        o.set(
            "throughput_per_s",
            simulated as f64 / secs.iter().sum::<f64>(),
        );
        o.set("step_p50_ms", median(&secs) * 1e3);
        o.set("step_tail_ms", tail_secs * 1e3);
        o.set("sim_p99_ms", reports.median_of(|k| reports.sim[k].0));
        o.set("sim_miss_ratio", reports.median_of(|k| reports.sim[k].1));
        o.set("peak_rss_mb", peak_rss_mb());
        return Ok(o);
    }

    // Traced: the same campaigns in a span, then the master's parts
    // called from outside, the registry publish and the one-thread
    // vehicle kernel; last, the shard-count invariance check.
    let mut tr = Tracer::new(true);
    let mut traced = Vec::new();
    let mut kernel = (0u64, 0u64);
    let mut step = 0;
    while traced.is_empty() || t0.elapsed() < run {
        let k = step % specs.len();
        tr.set_step(step as u64);
        let before = reference.probe_median(CAMPAIGN_PROBES);
        let (report, _, total, _) = tr.span("fleet.campaign", |_| {
            timed_campaign(&reference, &specs[k], before)
        });
        traced.push(total);
        reports.check(k, &report, &mut o);
        tr.span("parts", |tr| {
            fleet::publish(&report, tr);
            fleet::parts(&specs[k], &report, tr)
        })
        .unwrap_or_else(|e| o.fail(&e));
        let (ns, n) = fleet::vehicle_kernel(&specs[k], KERNEL_VEHICLES, &mut tr);
        kernel.0 += ns;
        kernel.1 += n;
        step += 1;
    }
    let one = fleet::campaign(&specs[0], 1);
    if Some(fleet::report_digest(&one)) != reports.digests[0] {
        o.fail("the 1-shard report differs from the 2-shard report");
    }
    reports.check(0, &one, &mut o);
    let spans = tr.spans();
    for (metric, span) in [
        ("fleet.spawn_ms", "fleet.spawn"),
        ("fleet.wave_ms", "fleet.wave"),
        ("fleet.merge_ms", "fleet.merge"),
        ("fleet.report_sort_ms", "fleet.report_sort"),
        ("monitor.gate_ms", "monitor.gate"),
        ("obs.publish_ms", "obs.publish"),
    ] {
        o.set(metric, median_ms(&self_time_per_step(spans, span)));
    }
    o.set("fleet.vehicle_ns", ratio(kernel.0, kernel.1));
    o.set(
        "fleet.waves_opened",
        reports.median_of(|k| reports.waves[k] as f64),
    );
    o.set(
        "fleet.storm",
        reports.median_of(|k| reports.storm[k] as f64),
    );
    o.set("monitor.halts", halts as f64);
    o.set(
        "trace_overhead_pct",
        (median(&traced) / median(&secs) - 1.0) * 100.0,
    );
    insert_shares(&mut o.metrics, spans, "parts");
    write_trace(&tr, a);
    eprintln!("traced: {} campaigns, {} spans", traced.len(), spans.len());
    Ok(o)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dynbench: {e}\nusage: dynbench --workload adas_tsn|adas_8021p|fleet_ota --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "adas_tsn" => run_adas(Backbone::Tsn, &args),
        "adas_8021p" => run_adas(Backbone::StrictPriority, &args),
        "fleet_ota" => run_fleet(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(outcome) => {
            let names = if args.trace { PER_LAYER } else { END_TO_END };
            println!("{}", outcome.to_json(names));
            // A failed output check fails the command, after the result.
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("dynbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names of the metrics listed under `key` in `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json lists no {key}"));
        let rest = &json[start..];
        let body = &rest[..rest.find(']').expect("metric list closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').expect("name value") + 1..];
                s[..s.find('"').expect("name ends")].to_string()
            })
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to dynbench/");
        let names =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(listed(&json, "end_to_end"), names(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), names(PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} must carry unit {unit} in BENCHMARK.json"
            );
        }
    }

    #[test]
    fn json_line_lists_every_metric_once() {
        let mut o = Outcome::new();
        o.attempted = 3;
        o.set("setup_s", 0.5);
        let line = o.to_json(END_TO_END);
        for (name, _) in END_TO_END {
            assert_eq!(line.matches(&format!("\"{name}\"")).count(), 1);
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }
}
