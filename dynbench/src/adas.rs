//! The two ADAS workloads: platform bring-up and closed-loop windows of
//! the camera → fusion → planner → brake chain.
//!
//! Every call into a layer goes through a [`Tracer`] span, so the traced
//! run attributes host time to layers from outside the library.

use crate::inputs::{AdasInputs, CHAIN_INSTANCES, CHAIN_PERIOD};
use crate::stats::Digest;
use crate::trace::Tracer;
use dynplat::comm::fabric::{BusPort, Fabric, MessageDelivery, MessageSend};
use dynplat::comm::paradigm::{
    run_rpc_into, EventBus, EventScratch, Publication, RpcCall, RpcScratch, RpcStats,
};
use dynplat::common::ids::ServiceInstance;
use dynplat::common::rng::{seeded_rng, split_seed, Rng};
use dynplat::common::time::{SimDuration, SimTime};
use dynplat::common::{AppId, BusId, EcuId, EventGroupId, MessageId, ServiceId};
use dynplat::core::platform::DEFAULT_SD_TTL;
use dynplat::core::{AppManifest, DynamicPlatform};
use dynplat::dse::{explore, DseConfig};
use dynplat::hw::{BusKind, RouteCache};
use dynplat::model::generate::{access_matrix, middleware_config, task_sets};
use dynplat::model::{parse_model, verify, verify_all_variants, SystemModel};
use dynplat::net::{
    simulate, Arbiter, CanArbiter, FlexRayBus, FlexRayConfig, Frame, GateControlList,
    SlotAssignment, StrictPriorityPort, TrafficClass, Transmission, TsnGatedPort, TxEvent,
};
use dynplat::sched::tt::synthesize;
use dynplat::sched::{response_times, simulate_schedule, Policy, SchedSimConfig, TaskSet};
use dynplat::security::{sha256, KeyPair, KeyRegistry, SignedPackage, UpdatePackage, Version};
use std::collections::BTreeMap;
use std::hint::black_box;

/// The camera-driver, fusion, planner and brake-controller apps.
const CAMERA: AppId = AppId(1);
const FUSION: AppId = AppId(2);
const PLANNER: AppId = AppId(3);
const BRAKE: AppId = AppId(4);
const BRAKE_LIGHT: AppId = AppId(5);
/// The brake event's service and group.
const BRAKE_SERVICE: ServiceId = ServiceId(30);
const BRAKE_GROUP: EventGroupId = EventGroupId(1);
/// The backbone bus of the model.
const BACKBONE: BusId = BusId(0);
/// Infotainment ECU (bulk source) and its sink.
const BULK_SRC: EcuId = EcuId(4);
const BULK_DST: EcuId = EcuId(1);
/// Message ids of the bulk frames start here, clear of the camera frames.
const BULK_ID: u64 = 1 << 32;

/// How the backbone arbitrates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backbone {
    /// 802.1Qbv gates (`GateControlList::mixed_criticality`).
    Tsn,
    /// The default 802.1p strict-priority port.
    StrictPriority,
}

/// The TSN gate list of the `adas_tsn` backbone: 1 ms cycle, 20% critical.
fn gate_list() -> GateControlList {
    GateControlList::mixed_criticality(SimDuration::from_millis(1), 0.2)
}

/// App images, built once per run from the model's `memory` sizes.
pub fn images(inputs: &AdasInputs) -> Result<BTreeMap<AppId, Vec<u8>>, String> {
    let model = parse_model(&inputs.model).map_err(|e| format!("model: {e}"))?;
    Ok(model
        .applications
        .iter()
        .map(|app| {
            let mut rng = seeded_rng(split_seed(inputs.image_seed, u64::from(app.id.raw())));
            let mut bytes = Vec::with_capacity(app.memory_kib as usize * 1024);
            while bytes.len() < app.memory_kib as usize * 1024 {
                bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            (app.id, bytes)
        })
        .collect())
}

/// A brought-up platform, ready to run windows.
pub struct Platform {
    model: SystemModel,
    /// App → ECU of the chosen design.
    assignment: BTreeMap<AppId, EcuId>,
    /// Digest of the chosen design, schedules and image digests.
    pub design: u64,
    policies: BTreeMap<EcuId, (TaskSet, Policy)>,
    platform: DynamicPlatform,
    fabric: Fabric,
    routes: RouteCache,
    deadline: SimDuration,
    /// DSE candidate evaluations of this bring-up.
    pub evaluations: u64,
    /// Bytes handed to signing, verification and digest calls.
    pub bytes_hashed: u64,
}

fn host(assignment: &BTreeMap<AppId, EcuId>, app: AppId) -> Result<EcuId, String> {
    assignment
        .get(&app)
        .copied()
        .ok_or_else(|| format!("design does not place {app}"))
}

/// Platform bring-up: model → verify → DSE → generate → schedule → sign
/// and deploy → routes and fabric. Every step is one or more spans.
pub fn bring_up(
    inputs: &AdasInputs,
    images: &BTreeMap<AppId, Vec<u8>>,
    backbone: Backbone,
    tr: &mut Tracer,
) -> Result<Platform, String> {
    let model = tr
        .span("model.parse", |_| parse_model(&inputs.model))
        .map_err(|e| format!("model: {e}"))?;
    let variants = tr.span("model.verify", |_| verify_all_variants(&model, 64));
    if !variants.iter().any(|(_, v)| v.is_empty()) {
        return Err("no deployment variant verifies clean".into());
    }
    let cfg = DseConfig {
        seed: inputs.dse_seed,
        n_chains: 2,
        ..DseConfig::default()
    };
    let result = tr.span("dse.explore", |_| explore(&model, &cfg));
    let evaluations = result.evaluations;
    let feasible = result.found_feasible();
    let (assignment, _) = result.best.ok_or("DSE found no design")?;
    if !feasible {
        return Err("DSE found no feasible design".into());
    }
    let violations = tr.span("model.verify", |_| verify(&model, &assignment));
    if !violations.is_empty() {
        return Err(format!("chosen design has {} violations", violations.len()));
    }
    let (sets, sd, matrix) = tr.span("model.generate", |_| {
        (
            task_sets(&model, &assignment),
            middleware_config(&model, &assignment, DEFAULT_SD_TTL),
            access_matrix(&model),
        )
    });
    if sd.is_empty() || matrix.is_empty() {
        return Err("generated middleware or access config is empty".into());
    }

    let mut design = Digest::default();
    for (app, ecu) in &assignment {
        design.word(u64::from(app.raw()));
        design.word(u64::from(ecu.raw()));
    }
    let mut policies = BTreeMap::new();
    for (ecu, set) in sets {
        let schedule = tr
            .span("sched.tt_synth", |_| synthesize(&set))
            .map_err(|e| format!("TT synthesis on {ecu}: {e}"))?;
        schedule
            .validate(&set)
            .map_err(|e| format!("TT schedule on {ecu} is invalid: {e}"))?;
        let rta = tr.span("sched.rta", |_| response_times(&set));
        if !rta.iter().all(|r| r.is_schedulable()) {
            return Err(format!("task set on {ecu} fails RTA"));
        }
        for e in schedule.entries() {
            design.word(u64::from(e.task.raw()));
            design.word(e.start.as_nanos());
        }
        policies.insert(ecu, (set, Policy::TimeTriggered(schedule)));
    }

    let key = KeyPair::from_seed(&inputs.key_seed);
    let mut registry = KeyRegistry::new();
    registry.trust(key.public());
    let mut manifests = Vec::with_capacity(model.applications.len());
    let mut bytes_hashed = 0u64;
    for app in &model.applications {
        let ecu = host(&assignment, app.id)?;
        let image = images.get(&app.id).ok_or("missing app image")?.clone();
        let package = UpdatePackage::new(app.id, Version::new(1, 0, 0), 1, image);
        let signed = tr.span("security.sign", |_| SignedPackage::create(&package, &key));
        let (verified, digest) = tr.span("security.verify", |_| {
            (signed.verify(&registry), sha256(&signed.package_bytes))
        });
        let verified = verified.map_err(|e| format!("image of {}: {e}", app.id))?;
        if verified != package {
            return Err(format!("image of {} does not round-trip", app.id));
        }
        bytes_hashed += 3 * signed.package_bytes.len() as u64;
        design.bytes(&digest);
        manifests.push((ecu, AppManifest::new(app.clone(), verified.version, digest)));
    }
    let platform = tr.span("core.deploy", |_| {
        let mut platform = DynamicPlatform::new(registry);
        for ecu in model.hardware.ecus() {
            platform.add_node(ecu.clone());
        }
        platform.set_access_matrix(matrix);
        for (ecu, manifest) in manifests {
            platform
                .deploy_verified(SimTime::ZERO, ecu, manifest)
                .map_err(|e| format!("deploy on {ecu}: {e}"))?;
        }
        Ok::<_, String>(platform)
    })?;

    let ecus: Vec<EcuId> = model.hardware.ecus().map(|e| e.id()).collect();
    let routes = tr.span("hw.route_build", |_| {
        let mut routes = RouteCache::new(&model.hardware);
        for &e in &ecus {
            routes.prefetch(e).map_err(|e| e.to_string())?;
        }
        Ok::<_, String>(routes)
    })?;
    let fabric = tr.span("comm.fabric_setup", |_| {
        let mut fabric = Fabric::new(model.hardware.clone());
        if backbone == Backbone::Tsn {
            let kind = model
                .hardware
                .bus(BACKBONE)
                .map(|b| b.kind)
                .ok_or("model has no backbone")?;
            fabric.set_port(BACKBONE, BusPort::tsn_for(kind, gate_list()));
        }
        for &e in &ecus {
            fabric.prefetch_routes(e).map_err(|e| e.to_string())?;
        }
        Ok::<_, String>(fabric)
    })?;

    let deadline = model
        .interface(BRAKE_SERVICE)
        .and_then(|i| i.event(BRAKE_GROUP))
        .and_then(|e| e.qos.max_latency)
        .ok_or("the brake event declares no latency bound")?;
    for app in [CAMERA, FUSION, PLANNER, BRAKE, BRAKE_LIGHT] {
        host(&assignment, app)?;
    }
    Ok(Platform {
        model,
        assignment,
        design: design.value(),
        policies,
        platform,
        fabric,
        routes,
        deadline,
        evaluations,
        bytes_hashed,
    })
}

/// Reused buffers of the window loop.
#[derive(Default)]
pub struct WindowScratch {
    rpc: RpcScratch,
    rpc_calls: Vec<RpcCall>,
    rpc_out: Vec<RpcStats>,
    event: EventScratch,
    pubs: Vec<Publication>,
    event_out: Vec<(usize, EcuId, MessageDelivery)>,
    bulk: Vec<MessageSend>,
    hop_out: Vec<MessageDelivery>,
    /// Send and delivery time of each camera frame, by frame id.
    arrival: Vec<Option<(SimTime, SimTime)>>,
    /// Sends of the stream hop's fabric run: camera frames, then bulk.
    hop: Vec<MessageSend>,
}

/// What one window produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowOut {
    /// Digest of the delivery sequence and chain results.
    pub digest: u64,
    /// Fabric sends issued.
    pub sends: u64,
    /// Fabric deliveries.
    pub deliveries: u64,
    /// Sends that never delivered.
    pub undelivered: u64,
    /// Camera → brake latency per completed chain instance, in ns.
    pub chain_ns: Vec<u64>,
    /// Chain instances that never completed.
    pub incomplete: u64,
    /// Chain instances over the declared deadline, or incomplete.
    pub misses: u64,
    /// Scheduler jobs simulated.
    pub jobs: u64,
}

/// Reads the fabric counters the library keeps in the global registry.
struct FabricCounters {
    sends: u64,
    deliveries: u64,
    dropped: u64,
    spills: u64,
}

fn fabric_counters() -> FabricCounters {
    let g = dynplat::obs::global();
    FabricCounters {
        sends: g.counter("comm.fabric.sends").get(),
        deliveries: g.counter("comm.fabric.deliveries").get(),
        dropped: g.counter("comm.fabric.dropped_unreachable").get(),
        spills: g.counter("comm.fabric.ring_spills").get(),
    }
}

/// One closed-loop window: scheduler dispatch on every chain ECU, then
/// the Stream (sharing its fabric run with the infotainment bulk), RPC
/// and Event hops of the chain, each hop sent when the previous one
/// completed plus the simulated response time of the app in between.
pub fn window(
    p: &mut Platform,
    inputs: &AdasInputs,
    s: &mut WindowScratch,
    tr: &mut Tracer,
) -> Result<WindowOut, String> {
    let mut out = WindowOut::default();
    let mut digest = Digest::default();
    let before = fabric_counters();

    // Scheduler dispatch: simulated response time of every chain app.
    let horizon = CHAIN_PERIOD * CHAIN_INSTANCES as u64;
    let mut response: BTreeMap<AppId, SimDuration> = BTreeMap::new();
    for (ecu, (set, policy)) in &p.policies {
        let cfg = SchedSimConfig {
            horizon,
            seed: split_seed(inputs.sched_seed, u64::from(ecu.raw())),
            ..SchedSimConfig::default()
        };
        let stats = tr.span("sched.dispatch", |_| simulate_schedule(set, policy, &cfg));
        for t in &stats.tasks {
            out.jobs += t.activations;
            if t.deadline_misses > 0 {
                return Err(format!("task {} misses deadlines on {ecu}", t.id));
            }
            response.insert(AppId(t.id.raw()), t.response_max);
            digest.word(t.response_max.as_nanos());
        }
    }
    let resp = |app: AppId| -> Result<SimDuration, String> {
        response
            .get(&app)
            .copied()
            .ok_or_else(|| format!("no simulated response time for {app}"))
    };
    let (r_cam, r_fus, r_plan, r_brake) =
        (resp(CAMERA)?, resp(FUSION)?, resp(PLANNER)?, resp(BRAKE)?);
    let h = |app| host(&p.assignment, app);
    let (cam, fus, plan, brake) = (h(CAMERA)?, h(FUSION)?, h(PLANNER)?, h(BRAKE)?);
    let start = |k: usize| SimTime::ZERO + CHAIN_PERIOD * k as u64;

    // Stream hop: camera → fusion, in one fabric run with the
    // infotainment bulk, which fills the backbone's best-effort class
    // while the camera frames cross it.
    if s.bulk.is_empty() {
        s.bulk = inputs
            .bulk_at_ns
            .iter()
            .enumerate()
            .map(|(i, &at)| MessageSend {
                id: BULK_ID + i as u64,
                time: SimTime::from_nanos(at),
                src: BULK_SRC,
                dst: BULK_DST,
                payload: 1500,
                class: TrafficClass::BestEffort,
                priority: 6,
                trace: dynplat::obs::TraceCtx::NONE,
            })
            .collect();
    }
    // The camera frames lead the run's sends and the bulk follows; only
    // the frames are rewritten each window.
    if s.hop.len() != CHAIN_INSTANCES + s.bulk.len() {
        s.hop = vec![s.bulk[0].clone(); CHAIN_INSTANCES];
        s.hop.extend_from_slice(&s.bulk);
    }
    let first = SimTime::ZERO + r_cam;
    for (k, m) in s.hop[..CHAIN_INSTANCES].iter_mut().enumerate() {
        *m = MessageSend {
            id: k as u64,
            time: first + CHAIN_PERIOD * k as u64,
            src: cam,
            dst: fus,
            payload: inputs.frame_bytes,
            class: TrafficClass::Stream,
            priority: 3,
            trace: dynplat::obs::TraceCtx::NONE,
        };
    }
    s.hop_out.clear();
    let fabric = &mut p.fabric;
    tr.span("comm.stream", |_| {
        fabric.run_batch(&s.hop, &mut s.hop_out, |_, _| {})
    });
    out.sends += s.hop.len() as u64;
    out.deliveries += s.hop_out.len() as u64;
    // Frame k is decodable once frames 0..=k have all arrived.
    s.arrival.clear();
    s.arrival.resize(CHAIN_INSTANCES, None);
    for d in &s.hop_out {
        digest.word(d.id);
        digest.word(d.delivered.as_nanos());
        if let Some(slot) = s.arrival.get_mut(d.id as usize) {
            *slot = Some((d.sent, d.delivered));
        }
    }
    let (mut decodable_at, mut max_decodable, mut frames) = (SimTime::ZERO, SimDuration::ZERO, 0);
    for &(sent, arrived) in s.arrival.iter().map_while(|a| a.as_ref()) {
        frames += 1;
        decodable_at = decodable_at.max(arrived);
        max_decodable = max_decodable.max(decodable_at.saturating_since(sent));
    }
    let stream_ok = frames == CHAIN_INSTANCES;
    let frame_ready = r_cam + max_decodable;

    // RPC hop: the planner asks fusion for a plan once frame k is decodable.
    s.rpc_calls.clear();
    for k in 0..CHAIN_INSTANCES {
        s.rpc_calls.push(RpcCall {
            time: start(k) + frame_ready + SimDuration::from_nanos(inputs.jitter_ns[k]),
            client: plan,
            server: fus,
            request_payload: 64,
            response_payload: 256,
            processing: r_fus,
            class: TrafficClass::Stream,
            priority: 2,
            trace: dynplat::obs::TraceCtx::NONE,
        });
    }
    let fabric = &mut p.fabric;
    tr.span("comm.rpc", |_| {
        run_rpc_into(fabric, &s.rpc_calls, &mut s.rpc, &mut s.rpc_out)
    });
    out.sends += 2 * CHAIN_INSTANCES as u64;
    out.deliveries += 2 * s.rpc_out.len() as u64;
    let mut rpc_done: Vec<Option<SimTime>> = vec![None; CHAIN_INSTANCES];
    for r in &s.rpc_out {
        digest.word(r.call as u64);
        digest.word(r.round_trip.as_nanos());
        rpc_done[r.call] = Some(s.rpc_calls[r.call].time + r.round_trip);
    }
    // Event hop: the planner publishes the brake command to every
    // subscriber (brake controller and brake light).
    s.pubs.clear();
    let mut pub_instance = Vec::with_capacity(CHAIN_INSTANCES);
    for (k, done) in rpc_done.iter().enumerate() {
        if let Some(done) = done {
            pub_instance.push(k);
            s.pubs.push(Publication {
                time: *done + r_plan,
                instance: ServiceInstance::new(BRAKE_SERVICE, 0),
                group: BRAKE_GROUP,
                src: plan,
                payload: 48,
                class: TrafficClass::Critical,
                priority: 0,
                trace: dynplat::obs::TraceCtx::NONE,
            });
        }
    }
    let (fabric, directory) = (&mut p.fabric, p.platform.directory());
    tr.span("comm.event", |_| {
        EventBus::new(fabric, directory).publish_all_into(&s.pubs, &mut s.event, &mut s.event_out)
    });
    let legs = s.event.fanout_sends() as u64;
    out.sends += legs;
    out.deliveries += s.event_out.len() as u64;
    if legs < 2 * s.pubs.len() as u64 {
        return Err(format!(
            "brake event fanned out to {legs} legs for {} publications",
            s.pubs.len()
        ));
    }
    let mut brake_at: Vec<Option<SimTime>> = vec![None; CHAIN_INSTANCES];
    for (idx, dst, d) in &s.event_out {
        digest.word(*idx as u64);
        digest.word(u64::from(dst.raw()));
        digest.word(d.delivered.as_nanos());
        if *dst == brake {
            brake_at[pub_instance[*idx]] = Some(d.delivered + r_brake);
        }
    }
    // Chain outcome per instance.
    for (k, end) in brake_at.iter().enumerate() {
        match end {
            Some(end) if stream_ok => {
                let lat = end.saturating_since(start(k));
                digest.word(lat.as_nanos());
                out.chain_ns.push(lat.as_nanos());
                if lat > p.deadline {
                    out.misses += 1;
                }
            }
            _ => {
                out.incomplete += 1;
                out.misses += 1;
            }
        }
    }

    // Fabric accounting: every send delivers or has a drop cause.
    let after = fabric_counters();
    let sends = after.sends - before.sends;
    let deliveries = after.deliveries - before.deliveries;
    let dropped = after.dropped - before.dropped;
    if sends != deliveries + dropped {
        return Err(format!(
            "fabric lost messages: {sends} sends, {deliveries} deliveries, {dropped} dropped"
        ));
    }
    if deliveries != out.deliveries || sends != out.sends {
        return Err(format!(
            "fabric counters ({sends} sends, {deliveries} deliveries) disagree with the paradigm results ({} sends, {} deliveries)",
            out.sends, out.deliveries
        ));
    }
    out.undelivered = out.sends - out.deliveries;
    out.digest = digest.value();
    Ok(out)
}

/// Per-bus frames of one or more windows, replayed through the bus
/// arbiters alone: `(ns of arbiter time, frames)` per arbiter kind.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// TSN-gated Ethernet.
    pub tsn: (u64, u64),
    /// Deepest TSN queue seen.
    pub tsn_queue_max: u64,
    /// 802.1p Ethernet.
    pub eth: (u64, u64),
    /// CAN.
    pub can: (u64, u64),
    /// FlexRay.
    pub flexray: (u64, u64),
    /// `(ns, lookups)` of steady-state route lookups.
    pub route: (u64, u64),
}

impl Replay {
    /// Adds another window's replay.
    pub fn add(&mut self, r: &Replay) {
        for (acc, x) in [
            (&mut self.tsn, r.tsn),
            (&mut self.eth, r.eth),
            (&mut self.can, r.can),
            (&mut self.flexray, r.flexray),
            (&mut self.route, r.route),
        ] {
            acc.0 += x.0;
            acc.1 += x.1;
        }
        self.tsn_queue_max = self.tsn_queue_max.max(r.tsn_queue_max);
    }
}

fn timed<A: Arbiter>(arbiter: &mut A, events: Vec<TxEvent>) -> (u64, Vec<Transmission>) {
    let t = std::time::Instant::now();
    let done = simulate(arbiter, events);
    (t.elapsed().as_nanos() as u64, black_box(done))
}

/// Deepest queue over a run: at each grant, the frames that arrived by
/// then minus those already granted.
fn queue_max(mut arrivals: Vec<SimTime>, done: &[Transmission]) -> u64 {
    arrivals.sort_unstable();
    let mut starts: Vec<SimTime> = done.iter().map(|t| t.start).collect();
    starts.sort_unstable();
    starts
        .iter()
        .enumerate()
        .map(|(i, &s)| (arrivals.partition_point(|&a| a <= s) - i) as u64)
        .max()
        .unwrap_or(0)
}

/// Replays one fabric run's sends, bus by bus, into `r`.
fn replay_run(
    p: &mut Platform,
    sends: &[MessageSend],
    tr: &mut Tracer,
    backbone: Backbone,
    r: &mut Replay,
) {
    let mut per_bus: BTreeMap<BusId, Vec<TxEvent>> = BTreeMap::new();
    let mut next_id = 0u32;
    for m in sends {
        let Ok(route) = p.routes.route_slice(m.src, m.dst) else {
            continue;
        };
        for bus in route {
            let mtu = match p.model.hardware.bus(*bus).map(|b| b.kind) {
                Some(BusKind::Can { .. }) => 8,
                Some(BusKind::FlexRay { .. }) => 254,
                _ => 1500,
            };
            let mut left = m.payload.max(1);
            while left > 0 {
                let seg = left.min(mtu);
                left -= seg;
                per_bus.entry(*bus).or_default().push(TxEvent {
                    arrival: m.time,
                    frame: Frame::new(MessageId(next_id), seg)
                        .with_priority(m.priority)
                        .with_class(m.class),
                });
                next_id = next_id.wrapping_add(1);
            }
        }
    }
    for (bus, events) in per_bus {
        let n = events.len() as u64;
        let Some(kind) = p.model.hardware.bus(bus).map(|b| b.kind) else {
            continue;
        };
        match kind {
            BusKind::Ethernet { bitrate } if backbone == Backbone::Tsn => {
                let arrivals: Vec<SimTime> = events.iter().map(|e| e.arrival).collect();
                let (ns, done) = tr.span("net.tsn", |_| {
                    timed(&mut TsnGatedPort::new(bitrate, gate_list()), events)
                });
                r.tsn_queue_max = r.tsn_queue_max.max(queue_max(arrivals, &done));
                r.tsn.0 += ns;
                r.tsn.1 += n;
            }
            BusKind::Ethernet { bitrate } => {
                let (ns, _) = tr.span("net.eth", |_| {
                    timed(&mut StrictPriorityPort::new(bitrate), events)
                });
                r.eth.0 += ns;
                r.eth.1 += n;
            }
            BusKind::Can { bitrate } => {
                let (ns, _) = tr.span("net.can", |_| timed(&mut CanArbiter::new(bitrate), events));
                r.can.0 += ns;
                r.can.1 += n;
            }
            BusKind::FlexRay { .. } => {
                let (ns, _) = tr.span("net.flexray", |_| {
                    timed(
                        &mut FlexRayBus::new(
                            FlexRayConfig::typical_10mbit(),
                            SlotAssignment::new(),
                        ),
                        events,
                    )
                });
                r.flexray.0 += ns;
                r.flexray.1 += n;
            }
        }
    }
}

/// The fabric sends of the window's RPC run (requests, then responses)
/// and event run (one leg per subscriber), rebuilt from the window's
/// calls, round trips and publications.
fn legs(p: &Platform, s: &WindowScratch) -> Result<[Vec<MessageSend>; 2], String> {
    let send = |time, src, dst, payload, class, priority| MessageSend {
        id: 0,
        time,
        src,
        dst,
        payload,
        class,
        priority,
        trace: dynplat::obs::TraceCtx::NONE,
    };
    let mut rpc: Vec<MessageSend> = s
        .rpc_calls
        .iter()
        .map(|c| {
            send(
                c.time,
                c.client,
                c.server,
                c.request_payload,
                c.class,
                c.priority,
            )
        })
        .collect();
    rpc.extend(s.rpc_out.iter().map(|r| {
        let c = &s.rpc_calls[r.call];
        let at = c.time + r.request_latency + c.processing;
        send(
            at,
            c.server,
            c.client,
            c.response_payload,
            c.class,
            c.priority,
        )
    }));
    let subscribers = [
        host(&p.assignment, BRAKE)?,
        host(&p.assignment, BRAKE_LIGHT)?,
    ];
    let event = s
        .pubs
        .iter()
        .flat_map(|pb| {
            subscribers.map(|dst| send(pb.time, pb.src, dst, pb.payload, pb.class, pb.priority))
        })
        .collect();
    Ok([rpc, event])
}

/// Replays the window's per-bus frames of each fabric run through each
/// bus's arbiter, and times steady-state route lookups for the window's
/// sends. The frames are segmented to each medium's MTU and released at
/// their send time.
pub fn replay(
    p: &mut Platform,
    s: &WindowScratch,
    tr: &mut Tracer,
    backbone: Backbone,
) -> Result<Replay, String> {
    let [rpc, event] = legs(p, s)?;
    let runs = [&s.hop, &rpc, &event];
    let mut r = Replay::default();
    for run in runs {
        replay_run(p, run, tr, backbone, &mut r);
    }
    const ROUNDS: u64 = 16;
    let routes = &mut p.routes;
    let (ns, hops) = tr.span("hw.route_lookup", |_| {
        let t = std::time::Instant::now();
        let mut hops = 0usize;
        for _ in 0..ROUNDS {
            for m in runs.into_iter().flatten() {
                if let Ok(route) = routes.route_slice(black_box(m.src), black_box(m.dst)) {
                    hops += black_box(route).len();
                }
            }
        }
        (t.elapsed().as_nanos() as u64, hops)
    });
    black_box(hops);
    r.route = (
        ns,
        ROUNDS * runs.iter().map(|run| run.len()).sum::<usize>() as u64,
    );
    Ok(r)
}

/// The fabric's ring spills so far (a process-wide counter).
pub fn ring_spills() -> u64 {
    fabric_counters().spills
}

/// Peak concurrently in-flight messages of the fabric.
pub fn slab_peak(p: &Platform) -> u64 {
    p.fabric.peak_slab_capacity() as u64
}
