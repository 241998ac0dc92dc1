//! FNV-1a digests of ledgers, result rows and simulated measurements.
//!
//! A later change that claims a host-time gain must leave these
//! unchanged: the ledger digest covers every charge class of every
//! phase (schema v1–v5, in declared order), the row digest every value
//! of every result row, and the sim digest the exact bits of every
//! priced time and energy.

use ecodb::server::LedgerTotals;
use ecodb::simhw::trace::{CpuWork, DiskWork, PhaseKind, WorkTrace, ALL_OP_CLASSES};
use ecodb::simhw::Measurement;
use ecodb::storage::{Tuple, Value};

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A running FNV-1a 64-bit hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Fold raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold an integer (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a float's exact bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Fold every ledger class of every phase of a trace.
    pub fn trace(&mut self, trace: &WorkTrace) {
        self.u64(trace.len() as u64);
        for p in trace.phases() {
            self.u64(match p.kind {
                PhaseKind::Execute => 0,
                PhaseKind::ClientGap => 1,
                PhaseKind::ClientCompute => 2,
            });
            self.classes(&p.cpu, p.mem_stream_bytes, p.mem_random_accesses, &p.disk);
            self.u64(p.gap_ns);
            self.u64(p.backoff_ns);
        }
    }

    /// Fold a summed ledger.
    pub fn totals(&mut self, l: &LedgerTotals) {
        self.classes(&l.cpu, l.mem_stream_bytes, l.mem_random_accesses, &l.disk);
        self.u64(l.gap_ns);
        self.u64(l.backoff_ns);
    }

    fn classes(&mut self, cpu: &CpuWork, stream: u64, random: u64, disk: &DiskWork) {
        for class in ALL_OP_CLASSES {
            self.u64(cpu.count(class));
        }
        self.u64(stream);
        self.u64(random);
        for v in [
            disk.sequential_bytes,
            disk.random_ios,
            disk.random_bytes,
            disk.retry_ios,
            disk.retry_bytes,
            disk.index_ios,
            disk.index_bytes,
            disk.log_ios,
            disk.log_bytes,
        ] {
            self.u64(v);
        }
    }

    /// Fold result rows, in order.
    pub fn rows(&mut self, rows: &[Tuple]) {
        self.u64(rows.len() as u64);
        for row in rows {
            self.u64(row.len() as u64);
            for v in row {
                match v {
                    Value::Int(i) => {
                        self.bytes(&[0]);
                        self.u64(*i as u64);
                    }
                    Value::Str(s) => {
                        self.bytes(&[1]);
                        self.u64(s.len() as u64);
                        self.bytes(s.as_bytes());
                    }
                    Value::Date(d) => {
                        self.bytes(&[2]);
                        self.u64(*d as u64);
                    }
                    Value::Char(c) => {
                        self.bytes(&[3]);
                        self.u64(u64::from(*c));
                    }
                    Value::Bool(b) => self.bytes(&[4, u8::from(*b)]),
                }
            }
        }
    }

    /// Fold the priced figures of one measurement.
    pub fn measurement(&mut self, m: &Measurement) {
        for v in [
            m.elapsed_s,
            m.cpu_joules,
            m.dram_joules,
            m.disk_joules,
            m.wall_joules,
        ] {
            self.f64(v);
        }
    }
}

/// The three digests of one unit of work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digests {
    /// Every ledger class, every statement.
    pub ledger: Fnv,
    /// Every result row.
    pub rows: Fnv,
    /// Every simulated time and energy, to the bit.
    pub sim: Fnv,
}

impl Digests {
    /// Fold one statement: its ledger, rows and priced measurement.
    pub fn add(&mut self, trace: &WorkTrace, rows: &[Tuple], m: &Measurement) {
        self.ledger.trace(trace);
        self.rows.rows(rows);
        self.sim.measurement(m);
    }

    /// Hex rendering for the report.
    pub fn hex(&self) -> [(&'static str, String); 3] {
        [
            ("ledger", format!("{:016x}", self.ledger.value())),
            ("rows", format!("{:016x}", self.rows.value())),
            ("sim", format!("{:016x}", self.sim.value())),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecodb::simhw::trace::{OpClass, Phase};

    fn sample_trace() -> WorkTrace {
        let mut p = Phase::execute("sql");
        p.cpu.add(OpClass::TupleFetch, 10);
        p.cpu.add(OpClass::LogRecord, 2);
        p.mem_stream_bytes = 4096;
        p.disk.log_ios = 1;
        p.disk.log_bytes = 8192;
        let mut t = WorkTrace::new();
        t.push(Phase::client_gap(5));
        t.push(p);
        t
    }

    #[test]
    fn digests_are_stable() {
        // Pinned values: a change here means every recorded digest in a
        // baseline changes too.
        let mut f = Fnv::default();
        f.bytes(b"a");
        assert_eq!(f.value(), 0xAF63_DC4C_8601_EC8C);

        // Every class as a little-endian u64, phase by phase (computed
        // independently of this code).
        let mut a = Fnv::default();
        a.trace(&sample_trace());
        assert_eq!(a.value(), 0xCA63_B008_AAA5_1EFA);

        let rows = vec![vec![
            Value::Int(1),
            Value::str("x"),
            Value::Date(3),
            Value::Char('F'),
        ]];
        let mut r1 = Fnv::default();
        r1.rows(&rows);
        let mut r2 = Fnv::default();
        r2.rows(&rows);
        assert_eq!(r1, r2);
    }

    #[test]
    fn every_ledger_class_moves_the_digest() {
        let digest = |t: &WorkTrace| {
            let mut f = Fnv::default();
            f.trace(t);
            f
        };
        let base = digest(&sample_trace());
        type Bump = Box<dyn Fn(&mut Phase)>;
        let mut bumps: Vec<Bump> = ALL_OP_CLASSES
            .iter()
            .map(|&c| Box::new(move |p: &mut Phase| p.cpu.add(c, 1)) as Bump)
            .collect();
        bumps.push(Box::new(|p| p.mem_stream_bytes += 1));
        bumps.push(Box::new(|p| p.mem_random_accesses += 1));
        bumps.push(Box::new(|p| p.gap_ns += 1));
        bumps.push(Box::new(|p| p.backoff_ns += 1));
        bumps.push(Box::new(|p| p.disk.sequential_bytes += 1));
        bumps.push(Box::new(|p| p.disk.random_ios += 1));
        bumps.push(Box::new(|p| p.disk.random_bytes += 1));
        bumps.push(Box::new(|p| p.disk.retry_ios += 1));
        bumps.push(Box::new(|p| p.disk.retry_bytes += 1));
        bumps.push(Box::new(|p| p.disk.index_ios += 1));
        bumps.push(Box::new(|p| p.disk.index_bytes += 1));
        bumps.push(Box::new(|p| p.disk.log_ios += 1));
        bumps.push(Box::new(|p| p.disk.log_bytes += 1));
        for (i, bump) in bumps.iter().enumerate() {
            let mut phases = sample_trace().phases().to_vec();
            bump(&mut phases[1]);
            let mut t = WorkTrace::new();
            phases.into_iter().for_each(|p| t.push(p));
            assert_ne!(digest(&t), base, "ledger class {i}");
        }

        let mut row_a = Fnv::default();
        row_a.rows(&[vec![Value::Int(1)]]);
        let mut row_b = Fnv::default();
        row_b.rows(&[vec![Value::Date(1)]]);
        assert_ne!(row_a, row_b, "the value's type is part of the digest");
    }
}
