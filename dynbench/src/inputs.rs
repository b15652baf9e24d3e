//! Workload inputs, generated from the seed alone.
//!
//! The same seed gives byte-identical inputs; another seed moves app
//! work, image contents, payload sizes and send jitter a little, so the
//! simulated figures differ between seeds without changing the shape of
//! the workload (queue depths, message counts, fleet size).

use dynplat::common::rng::{seeded_rng, split_seed, Rng};
use dynplat::common::time::SimDuration;

/// Chain instances per window (one camera frame each).
pub const CHAIN_INSTANCES: usize = 40;
/// Camera period: one chain instance starts every period.
pub const CHAIN_PERIOD: SimDuration = SimDuration::from_millis(3);
/// Infotainment bulk frames per window. Sized so the TSN best-effort
/// queue runs hundreds of frames deep while a window stays a few ms of
/// host time.
pub const BULK_FRAMES: usize = 600;
/// Bulk inter-arrival time: below the 802.1p line rate (the queue stays
/// shallow) and above the TSN best-effort share (the queue grows).
pub const BULK_SPACING: SimDuration = SimDuration::from_micros(150);
/// Vehicles per fleet campaign.
pub const FLEET_VEHICLES: u32 = 1_000_000;

/// Inputs of the two ADAS workloads. Both use the same inputs; they
/// differ only in the backbone port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdasInputs {
    /// DSL source of the vehicle model.
    pub model: String,
    /// Seed of the design-space exploration.
    pub dse_seed: u64,
    /// Seed of the scheduler simulation.
    pub sched_seed: u64,
    /// Seed of the signing authority's key.
    pub key_seed: [u8; 16],
    /// Byte pattern seed of the app images.
    pub image_seed: u64,
    /// Per-instance send jitter in ns, added to each hop's send time.
    pub jitter_ns: Vec<u64>,
    /// Camera frame payload in bytes.
    pub frame_bytes: usize,
    /// Arrival offsets of the bulk frames in ns from window start.
    pub bulk_at_ns: Vec<u64>,
}

/// Draws `base ± spread` (inclusive) and formats it with two decimals.
fn around(rng: &mut impl Rng, base: f64, spread: f64) -> String {
    let x = base * (1.0 + spread * (2.0 * rng.gen::<f64>() - 1.0));
    format!("{x:.2}")
}

/// Generates the ADAS inputs for `seed`.
pub fn adas(seed: u64) -> AdasInputs {
    let mut rng = seeded_rng(split_seed(seed, 0xADA5));
    let w_cam = around(&mut rng, 0.60, 0.05);
    let w_fus = around(&mut rng, 12.0, 0.05);
    let w_plan = around(&mut rng, 9.0, 0.05);
    let w_brake = around(&mut rng, 0.50, 0.05);
    let w_light = around(&mut rng, 0.30, 0.05);
    let model = format!(
        r#"# ADAS chain over a TSN-capable backbone with CAN body and FlexRay chassis segments.
system {{
  hardware {{
    ecu "camera"       {{ id 0 class domain }}
    ecu "compute-a"    {{ id 1 class high }}
    ecu "compute-b"    {{ id 2 class high }}
    ecu "gateway"      {{ id 3 class domain }}
    ecu "infotainment" {{ id 4 class high }}
    ecu "chassis-a"    {{ id 5 class domain }}
    ecu "chassis-b"    {{ id 6 class domain }}
    ecu "body"         {{ id 7 class domain }}
    bus "backbone"   {{ id 0 ethernet 100000000 attach [0 1 2 3 4] }}
    bus "body-can"   {{ id 1 can 500000 attach [3 7] }}
    bus "chassis-fr" {{ id 2 flexray 10000000 attach [3 5 6] }}
  }}
  interface "camera" {{
    id 10 owner 1 version 1
    stream "front" {{ id 1 frame blob bandwidth 12000000 }}
  }}
  interface "fusion" {{
    id 20 owner 2 version 1
    method "plan" {{ id 1 request {{t: u64}} response {{path: [f64; 16]}} latency 10ms }}
  }}
  interface "brake" {{
    id 30 owner 3 version 1
    event "brake" {{ id 1 payload {{decel: f64}} latency 6ms critical }}
  }}
  application "camera-driver" {{
    id 1 deterministic asil D provides [10] period 3ms work {w_cam} memory 1024
  }}
  application "fusion" {{
    id 2 deterministic asil D provides [20] consumes [10 stream 1] period 3ms work {w_fus} memory 3072
  }}
  application "planner" {{
    id 3 deterministic asil D provides [30] consumes [20 method 1] period 3ms work {w_plan} memory 2048
  }}
  application "brake-ctl" {{
    id 4 deterministic asil D consumes [30 event 1] period 3ms work {w_brake} memory 512
  }}
  application "brake-light" {{
    id 5 deterministic asil B consumes [30 event 1] period 6ms work {w_light} memory 256
  }}
  application "media" {{
    id 6 non-deterministic asil QM period 20ms work 40 memory 1536
  }}
  deployment {{
    app 1 on 0
    app 2 on 1
    app 3 on 2
    app 4 on any [5 6]
    app 5 on 7
    app 6 on any [4 1 2]
  }}
}}
"#
    );
    let jitter_ns = (0..CHAIN_INSTANCES)
        .map(|_| rng.gen_range(0..20_000u64))
        .collect();
    let frame_bytes = rng.gen_range(3_800..4_200usize);
    let spacing = BULK_SPACING.as_nanos();
    let bulk_at_ns = (0..BULK_FRAMES as u64)
        .map(|i| i * spacing + rng.gen_range(0..spacing / 10))
        .collect();
    let mut key_seed = [0u8; 16];
    for chunk in key_seed.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    AdasInputs {
        model,
        dse_seed: split_seed(seed, 0xD5E),
        sched_seed: split_seed(seed, 0x5C4ED),
        key_seed,
        image_seed: split_seed(seed, 0x1A6E),
        jitter_ns,
        frame_bytes,
        bulk_at_ns,
    }
}

/// The fleet campaign seed for `seed`.
pub fn fleet_seed(seed: u64) -> u64 {
    split_seed(seed, 0xF1EE7)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A serialised form of the inputs, for the determinism tests.
    fn adas_bytes(inputs: &AdasInputs) -> Vec<u8> {
        let mut out = inputs.model.clone().into_bytes();
        for w in [
            inputs.dse_seed,
            inputs.sched_seed,
            inputs.image_seed,
            inputs.frame_bytes as u64,
        ] {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&inputs.key_seed);
        for w in inputs.jitter_ns.iter().chain(&inputs.bulk_at_ns) {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(adas_bytes(&adas(7)), adas_bytes(&adas(7)));
        assert_ne!(adas_bytes(&adas(7)), adas_bytes(&adas(8)));
        assert_eq!(fleet_seed(7), fleet_seed(7));
        assert_ne!(fleet_seed(7), fleet_seed(8));
    }

    #[test]
    fn every_seed_keeps_the_workload_shape() {
        for seed in 0..32 {
            let i = adas(seed);
            assert_eq!(i.jitter_ns.len(), CHAIN_INSTANCES);
            assert_eq!(i.bulk_at_ns.len(), BULK_FRAMES);
            assert!(i.bulk_at_ns.windows(2).all(|w| w[0] < w[1]));
            assert!(dynplat::model::parse_model(&i.model).is_ok());
        }
    }
}
