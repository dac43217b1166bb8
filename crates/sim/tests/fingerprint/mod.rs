//! The simulator suites' report fingerprint: every field and span of
//! a [`SimReport`], hashed bit for bit.

use streamk_sim::SimReport;

/// FNV-1a over 64-bit words: stable across platforms and toolchains.
pub struct Fingerprint(pub u64);

impl Fingerprint {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn usizes(&mut self, xs: &[usize]) {
        self.word(xs.len() as u64);
        xs.iter().for_each(|&x| self.word(x as u64));
    }

    pub fn report(&mut self, r: &SimReport) {
        self.word(r.precision as u64);
        self.word(r.sms as u64);
        for x in [r.peak_flops, r.makespan, r.compute_makespan, r.memory_time, r.useful_flops, r.traffic_bytes] {
            self.float(x);
        }
        self.float(r.mac_busy);
        self.float(r.total_wait);
        self.word(r.spans.len() as u64);
        for s in &r.spans {
            self.usizes(&[s.cta_id, s.sm, s.iters]);
            self.float(s.start);
            self.float(s.end);
            self.float(s.waited);
        }
    }
}
