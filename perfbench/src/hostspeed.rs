//! How fast the host runs right now, from a fixed reference workload.
//!
//! The benchmark runs on a few vCPUs of a shared host. Other tenants
//! slow it in phases from seconds to minutes long, by a third or more,
//! with no steal time to show for it: they share the core's pipeline and
//! caches rather than take the CPU away. The simulator and the compilers
//! are branchy, dispatch-heavy code that loses most in those phases.
//!
//! The probe is code of the same character that no change to the program
//! can touch: a small register-machine interpreter over a 64 KiB memory
//! and a hash-map build, about 1 ms together on an idle 2-vCPU Xeon VM.
//! Each measured time is divided by the mean of the probes taken right
//! before and right after it, and multiplied by [`REF_S`], so a figure
//! reads as the seconds the work takes at the host speed where the probe
//! takes exactly `REF_S`. Bracketing matters for long operations: over
//! six 30 s sim-suite runs on such a host, the spread of a >100 ms cell
//! across passes was 12.5% raw, 10.6% normalised by the probe after it
//! alone, and 7.6% by the mean of the probes on both sides.

use std::collections::HashMap;
use std::time::Instant;

/// The probe's duration at the reference host speed, seconds: the unit in
/// which every normalised time is expressed.
pub const REF_S: f64 = 1e-3;

/// Interpreter steps per probe.
const INTERP_STEPS: usize = 200_000;

/// Hash-map insertions per probe.
const HASH_INSERTS: u64 = 20_000;

/// Owns the probe's memory, so a probe allocates only its hash map, and
/// the duration of the latest probe.
pub struct Probe {
    mem: Vec<u32>,
    rounds: u64,
    last_s: f64,
}

impl Probe {
    /// Runs a first probe, which brackets the first measured work.
    pub fn new() -> Probe {
        let mut p = Probe {
            mem: vec![0; 1 << 14],
            rounds: 0,
            last_s: 0.0,
        };
        p.last_s = p.time();
        p
    }

    /// Runs the reference workload once and returns its duration in
    /// seconds.
    fn time(&mut self) -> f64 {
        self.rounds += 1;
        let t = Instant::now();
        std::hint::black_box(interp(&mut self.mem, INTERP_STEPS));
        std::hint::black_box(hash_build(self.rounds, HASH_INSERTS));
        t.elapsed().as_secs_f64()
    }

    /// `seconds` of work measured since the previous probe, expressed at
    /// the reference host speed: scaled by the mean of that probe and a
    /// new one run now.
    pub fn normalise(&mut self, seconds: f64) -> f64 {
        let before = self.last_s;
        self.last_s = self.time();
        seconds * REF_S / ((before + self.last_s) / 2.0)
    }
}

#[derive(Clone, Copy)]
enum Op {
    Add(usize, usize, usize),
    Mul(usize, usize, usize),
    Xor(usize, usize, usize),
    Shr(usize, usize, u32),
    Load(usize, usize),
    Store(usize, usize),
    AddI(usize, u32),
    AndI(usize, u32),
    BranchNz(usize, usize),
    Halt,
}

/// A mixing loop of 1000 iterations over `mem`, with a data-dependent
/// branch: registers r0 counter, r1 accumulator, r2 address, r3 scratch.
const PROGRAM: [Op; 16] = [
    Op::AddI(3, 7),
    Op::Load(3, 2),
    Op::Add(1, 1, 3),
    Op::Mul(3, 1, 3),
    Op::Xor(1, 1, 3),
    Op::Shr(3, 1, 7),
    Op::AndI(3, 0x3fff),
    Op::Add(2, 2, 3),
    Op::AndI(2, 0x3fff),
    Op::Store(2, 1),
    Op::AndI(3, 1),
    Op::BranchNz(3, 13),
    Op::AddI(1, 3),
    Op::AddI(0, u32::MAX),
    Op::BranchNz(0, 0),
    Op::Halt,
];

/// Runs `PROGRAM` from the top until at least `steps` instructions have
/// executed; returns the accumulator.
fn interp(mem: &mut [u32], steps: usize) -> u32 {
    let mask = mem.len() as u32 - 1;
    let mut r = [0u32; 4];
    let mut done = 0;
    while done < steps {
        r[0] = 1000;
        let mut pc = 0;
        loop {
            done += 1;
            match PROGRAM[pc] {
                Op::Add(d, a, b) => r[d] = r[a].wrapping_add(r[b]),
                Op::Mul(d, a, b) => r[d] = r[a].wrapping_mul(r[b] | 1),
                Op::Xor(d, a, b) => r[d] = r[a] ^ r[b],
                Op::Shr(d, a, k) => r[d] = r[a] >> k,
                Op::Load(d, a) => r[d] = mem[(r[a] & mask) as usize],
                Op::Store(a, v) => mem[(r[a] & mask) as usize] = r[v],
                Op::AddI(d, k) => r[d] = r[d].wrapping_add(k),
                Op::AndI(d, k) => r[d] &= k,
                Op::BranchNz(a, target) => {
                    if r[a] != 0 {
                        pc = target;
                        continue;
                    }
                }
                Op::Halt => break,
            }
            pc += 1;
        }
    }
    r[1]
}

/// Builds a 4096-key hash map from `inserts` xorshift values.
fn hash_build(seed: u64, inserts: u64) -> u64 {
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut x = seed | 1;
    for _ in 0..inserts {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % 4096).or_insert(0) += x;
    }
    map.values().fold(0, |a, v| a ^ v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_work_is_fixed() {
        // The probe must do the same work every time, or normalised
        // times would drift with it.
        let (mut a, mut b) = (vec![0u32; 1 << 14], vec![0u32; 1 << 14]);
        assert_eq!(interp(&mut a, 5000), interp(&mut b, 5000));
        assert_eq!(a, b);
        assert_ne!(interp(&mut a, 5000), 0);
        assert_eq!(hash_build(3, 1000), hash_build(3, 1000));
    }

    #[test]
    fn normalise_scales_by_the_bracketing_probes() {
        let mut p = Probe::new();
        let before = p.last_s;
        assert!(before > 0.0);
        let n = p.normalise(2.0);
        assert!(n.is_finite() && n > 0.0);
        assert_eq!(n, 2.0 * REF_S / ((before + p.last_s) / 2.0));
    }
}
