//! Host-speed calibration: a fixed piece of work that runs none of the
//! engine's code, timed next to every measured stretch.
//!
//! A shared virtual machine runs the same code up to ~1.9× slower for
//! stretches of seconds to minutes (see NOTES.md). The in-process
//! workloads time each chunk of arrivals between two calibration runs and
//! scale the chunk's wall time by `NOMINAL_S / calibration time`: wall
//! time on a host that runs the calibration in `NOMINAL_S`. A change to
//! the engine cannot move the calibration, so it moves the scaled figure
//! as it moves wall time on a steady host.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Calibration time of the reference host (a 2-vCPU Xeon virtual
/// machine in its fast state): the scale is 1 there.
pub const NOMINAL_S: f64 = 3.0e-4;

/// Keys the calibration cycles through; its maps stay this small, so it
/// runs from cache as the engine's hot state does.
const KEYS: u64 = 512;
const ROUNDS: u64 = 3_000;

/// One run of the calibration work. Mixes what a stream engine's hot
/// loop does: hashing, ordered-map updates, small allocations, queue
/// traffic and data-dependent branches.
fn work(salt: u64) -> u64 {
    let mut hash: HashMap<u64, u64> = HashMap::with_capacity(KEYS as usize);
    let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
    let mut queue: VecDeque<Box<[u64; 4]>> = VecDeque::with_capacity(64);
    let mut x = salt | 1;
    let mut acc = 0u64;
    for i in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % KEYS;
        *hash.entry(k).or_insert(0) += i;
        if x & 1 == 0 {
            tree.insert(k, i);
        } else if let Some((&first, _)) = tree.range(k..).next() {
            tree.remove(&first);
        }
        queue.push_back(Box::new([x, k, i, acc]));
        if queue.len() > 48 {
            acc = acc.wrapping_add(queue.pop_front().map_or(0, |b| b[0] ^ b[3]));
        }
        acc = acc.wrapping_add(hash.get(&((x >> 9) % KEYS)).copied().unwrap_or(1));
    }
    acc ^ tree.len() as u64
}

/// Seconds one calibration takes now: the median of three back-to-back
/// runs, so a single interrupt does not set the scale.
pub fn sample() -> f64 {
    let mut t = [0.0; 3];
    for (i, slot) in t.iter_mut().enumerate() {
        let started = Instant::now();
        black_box(work(black_box(0x9E37_79B9_7F4A_7C15 ^ i as u64)));
        *slot = started.elapsed().as_secs_f64();
    }
    t.sort_by(f64::total_cmp);
    t[1]
}

/// Factor that turns wall time measured between calibrations that took
/// `before` and `after` seconds into wall time on the reference host.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_one_at_nominal_speed_and_follows_the_calibration() {
        assert_eq!(scale(NOMINAL_S, NOMINAL_S), 1.0);
        // A host twice as slow halves the scale, so doubled wall time
        // reads as it would on the reference host.
        assert_eq!(scale(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5);
        assert_eq!(scale(NOMINAL_S, 3.0 * NOMINAL_S), 0.5);
    }

    #[test]
    fn calibration_work_is_fixed_and_takes_time() {
        assert_eq!(work(7), work(7));
        assert!(sample() > 0.0);
    }
}
