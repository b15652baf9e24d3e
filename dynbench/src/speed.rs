//! Host-speed reference: a fixed kernel timed next to every timed step.
//!
//! The benchmark shares its host with other tenants. Their load comes and
//! goes in phases of about a second, and a whole process can run in a
//! slow mode in which allocation-heavy code such as the fabric and the
//! TSN port takes up to 1.9× as long. Timing a fixed, benchmark-owned
//! kernel next to each step and dividing by it cancels most of that.
//!
//! The kernel does the kind of work that slows down with the host the way
//! the library does: queue scans with a small allocation per element,
//! byte hashing and ordered-map churn. A pure compute kernel on stack
//! arrays slowed by only 1.2× where the windows slowed by 1.7×, so it
//! could not stand in for them.
//!
//! The kernel must measure the host, not the program under test, so it
//! shares no state with the library:
//!
//! - it runs on a [`Reference`] thread of its own, started before any
//!   library call, so its allocations come from that thread's allocator
//!   arena, which the library never touches;
//! - each probe runs it once untimed, to bring its working set back into
//!   the caches, and times a second run, so cache lines the library
//!   evicted cannot change it;
//! - a probe runs only while no library code runs: the caller blocks until
//!   the probe ends, right after each ADAS window, and around each
//!   bring-up and each fleet campaign, once its shard threads are joined.
//!
//! A library change therefore moves the step time and leaves the
//! reference alone. The README records the check: a busy loop and a
//! cache- and heap-polluting loop injected into the library moved the
//! normalised step time up by about as much as the raw one, and left the
//! reference within its run-to-run range.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Host time of one kernel run on the 2-vCPU reference box when no other
/// tenant is busy. Normalised times are expressed at this speed.
pub const NOMINAL_S: f64 = 0.2e-3;

/// The reference work. Deterministic; returns a value so it cannot be
/// optimised away.
pub fn kernel(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let queue: Vec<(u32, u64, u64, u64)> = (0..256)
        .map(|i| (i as u32, next(), next(), next()))
        .collect();
    let mut acc = 0u64;
    for _ in 0..32 {
        let mut best = u64::MAX;
        for e in &queue {
            let pair: Vec<u64> = vec![e.1 ^ acc, e.2];
            best = best.min(black_box(pair)[0] % 1000);
        }
        acc = acc.wrapping_add(best);
    }
    let bytes: Vec<u8> = (0..16_384).map(|_| next() as u8).collect();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut map = BTreeMap::new();
    for i in 0..512u64 {
        map.insert(next() % 4096, i);
    }
    for _ in 0..256 {
        map.remove(&(next() % 4096));
    }
    acc ^ h ^ map.len() as u64
}

/// Host seconds of one kernel run, timed after an untimed run that warms
/// its working set.
fn timed_kernel() -> f64 {
    black_box(kernel(black_box(0x5EED)));
    let t = Instant::now();
    black_box(kernel(black_box(0x5EED)));
    t.elapsed().as_secs_f64()
}

/// The thread that runs the kernel. Dropping it stops and joins the
/// thread.
pub struct Reference {
    ask: Option<SyncSender<()>>,
    answer: Receiver<f64>,
    thread: Option<JoinHandle<()>>,
}

impl Reference {
    /// Starts the reference thread.
    pub fn start() -> Self {
        let (ask, asked) = sync_channel::<()>(0);
        let (answer_tx, answer) = sync_channel::<f64>(0);
        let thread = std::thread::spawn(move || {
            while asked.recv().is_ok() {
                if answer_tx.send(timed_kernel()).is_err() {
                    break;
                }
            }
        });
        Reference {
            ask: Some(ask),
            answer,
            thread: Some(thread),
        }
    }

    /// Host seconds of one kernel run on the reference thread; the caller
    /// waits for it.
    pub fn probe(&self) -> f64 {
        let ask = self
            .ask
            .as_ref()
            .expect("the reference thread runs until drop");
        ask.send(()).expect("the reference thread is alive");
        self.answer.recv().expect("the reference thread answers")
    }

    /// Median host seconds of `n` probes.
    pub fn probe_median(&self, n: usize) -> f64 {
        let runs: Vec<f64> = (0..n).map(|_| self.probe()).collect();
        crate::stats::median(&runs)
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        // Closing the channel ends the thread's loop.
        self.ask = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// `secs` of host time, expressed at the nominal host speed, given the
/// kernel time `reference` measured next to it.
pub fn normalise(secs: f64, reference: f64) -> f64 {
    secs * NOMINAL_S / reference
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_normalising_is_linear() {
        assert_eq!(kernel(3), kernel(3));
        assert_ne!(kernel(3), kernel(4));
        let reference = Reference::start();
        assert!(reference.probe() > 0.0);
        assert!(reference.probe_median(3) > 0.0);
        drop(reference);
        assert_eq!(normalise(2.0, NOMINAL_S), 2.0);
        assert_eq!(normalise(2.0, 2.0 * NOMINAL_S), 1.0);
    }
}
