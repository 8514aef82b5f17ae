//! Seeded, deterministic fault injection for the network simulator.
//!
//! §7's initialization protocol assumes a one-shot, lossless BLE/WiFi
//! exchange and static membership. At "billions of things" scale the
//! control plane drops messages, nodes crash mid-session, and blockage
//! arrives in correlated bursts (§8, Fig. 11). This module generates
//! those failures *deterministically*: every draw comes from an RNG
//! derived from the trial seed with SplitMix64, on a stream separate
//! from the channel/fading RNG, so
//!
//! * the same seed reproduces the identical failure **and recovery**
//!   trace at any thread count (extending the PR 1 determinism
//!   contract), and
//! * enabling faults does not perturb the channel realization of a
//!   fault-free run with the same seed.
//!
//! Fault classes: control-message loss, duplication and delay; node
//! crash + rejoin (churn); correlated blockage bursts; and an AP
//! restart that wipes the admission state.

use mmx_units::{Db, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Mixes a seed and a stream index into an independent derived seed
/// (two SplitMix64 finalizer rounds over the golden-ratio-offset index,
/// keyed by the seed). `mmx-bench::par` re-exports it for its sweeps.
pub fn splitmix64(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z ^ (z >> 31);
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    z ^ (z >> 33)
}

/// The stream index the fault RNG is derived on (keeps fault draws off
/// the channel/fading stream, which uses the raw trial seed).
const FAULT_STREAM: u64 = 0xFA57_0001;

/// Fault-injection intensities. All probabilities are per-event; rates
/// are Poisson intensities in events per simulated second.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that a control message is lost in flight.
    pub control_loss: f64,
    /// Probability that a delivered control message is duplicated.
    pub control_dup: f64,
    /// Maximum extra one-way delay on a delivered control message
    /// (uniform in `[0, max]`).
    pub control_delay_max: Seconds,
    /// Per-node crash rate (Poisson, crashes per second of uptime).
    pub crash_rate_hz: f64,
    /// How long a crashed node stays down before it reboots and
    /// rejoins.
    pub rejoin_delay: Seconds,
    /// Rate of correlated blockage bursts hitting the whole room.
    pub burst_rate_hz: f64,
    /// Duration of one blockage burst.
    pub burst_len: Seconds,
    /// Extra attenuation every link suffers during a burst.
    pub burst_loss: Db,
    /// When set, the AP restarts at this time, wiping its admission
    /// state; nodes must detect the outage and rejoin.
    pub ap_restart_at: Option<Seconds>,
}

impl FaultConfig {
    /// No faults at all — the control plane still runs (leases,
    /// keepalives, acks), but every message is delivered instantly and
    /// nobody crashes.
    pub fn none() -> Self {
        FaultConfig {
            control_loss: 0.0,
            control_dup: 0.0,
            control_delay_max: Seconds::ZERO,
            crash_rate_hz: 0.0,
            rejoin_delay: Seconds::from_millis(200.0),
            burst_rate_hz: 0.0,
            burst_len: Seconds::from_millis(300.0),
            burst_loss: Db::new(25.0),
            ap_restart_at: None,
        }
    }

    /// A lossy-control preset: `loss` applied to every control message,
    /// with 2% duplication and up to 10 ms of extra delay.
    pub fn lossy(loss: f64) -> Self {
        FaultConfig {
            control_loss: loss,
            control_dup: 0.02,
            control_delay_max: Seconds::from_millis(10.0),
            ..Self::none()
        }
    }

    /// Adds node churn: crashes at `rate_hz` per node, rebooting after
    /// `rejoin_delay`.
    pub fn with_churn(mut self, rate_hz: f64, rejoin_delay: Seconds) -> Self {
        self.crash_rate_hz = rate_hz;
        self.rejoin_delay = rejoin_delay;
        self
    }

    /// Adds correlated blockage bursts.
    pub fn with_bursts(mut self, rate_hz: f64, len: Seconds, loss: Db) -> Self {
        self.burst_rate_hz = rate_hz;
        self.burst_len = len;
        self.burst_loss = loss;
        self
    }

    /// Schedules an AP restart.
    pub fn with_ap_restart(mut self, at: Seconds) -> Self {
        self.ap_restart_at = Some(at);
        self
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// The fate of one control message, as decided by the injector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlFate {
    /// The message never arrives.
    pub lost: bool,
    /// A second copy arrives as well (only meaningful when not lost).
    pub duplicated: bool,
    /// Extra one-way delay on top of the nominal control latency.
    pub extra_delay: Seconds,
}

impl ControlFate {
    /// Instant, reliable delivery.
    pub fn clean() -> Self {
        ControlFate {
            lost: false,
            duplicated: false,
            extra_delay: Seconds::ZERO,
        }
    }
}

/// Counters of what the injector actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Control messages dropped.
    pub control_lost: u64,
    /// Control messages duplicated.
    pub control_duplicated: u64,
    /// Control messages delayed beyond the nominal latency.
    pub control_delayed: u64,
    /// Node crashes injected.
    pub crashes: u64,
    /// Blockage bursts injected.
    pub bursts: u64,
}

/// One scheduled node crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEvent {
    /// Index of the crashing node (simulator order, not `NodeId`).
    pub node: usize,
    /// When it dies.
    pub at: Seconds,
}

/// The seeded fault injector. All randomness flows through one `StdRng`
/// derived from `(seed, FAULT_STREAM)`; identical seeds and an
/// identical sequence of queries reproduce identical faults.
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: StdRng,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for one trial.
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        FaultInjector {
            cfg,
            rng: StdRng::seed_from_u64(splitmix64(seed, FAULT_STREAM)),
            stats: FaultStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// What the injector did so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Decides the fate of one control message. Always consumes the
    /// same number of RNG draws regardless of outcome, so the fault
    /// stream stays aligned across configs that differ only in
    /// intensity.
    pub fn control_fate(&mut self) -> ControlFate {
        let u_loss = self.rng.gen::<f64>();
        let u_dup = self.rng.gen::<f64>();
        let u_delay = self.rng.gen::<f64>();
        let lost = u_loss < self.cfg.control_loss;
        let duplicated = !lost && u_dup < self.cfg.control_dup;
        let extra_delay = self.cfg.control_delay_max * u_delay;
        if lost {
            self.stats.control_lost += 1;
        }
        if duplicated {
            self.stats.control_duplicated += 1;
        }
        if !lost && extra_delay > Seconds::ZERO {
            self.stats.control_delayed += 1;
        }
        ControlFate {
            lost,
            duplicated,
            extra_delay,
        }
    }

    /// A deterministic jitter factor in `[0, 1)` for backoff timers.
    pub fn jitter(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Draws an exponential inter-arrival time for rate `rate_hz`
    /// (`None` when the rate is zero).
    fn exp_draw(&mut self, rate_hz: f64) -> Option<Seconds> {
        let u = self.rng.gen::<f64>();
        if rate_hz <= 0.0 {
            return None;
        }
        // Clamp u away from 1 so ln never sees 0.
        Some(Seconds::new(-(1.0 - u.min(1.0 - 1e-12)).ln() / rate_hz))
    }

    /// Pre-draws the crash schedule for `nodes` nodes over `duration`:
    /// each node crashes at Poisson times, with `rejoin_delay` of
    /// downtime after each crash. Sorted by time, ties by node index.
    pub fn crash_schedule(&mut self, nodes: usize, duration: Seconds) -> Vec<CrashEvent> {
        let mut out = Vec::new();
        for node in 0..nodes {
            let mut t = Seconds::ZERO;
            while let Some(dt) = self.exp_draw(self.cfg.crash_rate_hz) {
                t = t + dt + self.cfg.rejoin_delay;
                if t >= duration {
                    break;
                }
                out.push(CrashEvent { node, at: t });
                self.stats.crashes += 1;
            }
        }
        out.sort_by(|a, b| {
            a.at.partial_cmp(&b.at)
                .expect("crash times are finite")
                .then(a.node.cmp(&b.node))
        });
        out
    }

    /// Pre-draws correlated blockage-burst windows over `duration` as
    /// `(start, end)` pairs, in order.
    pub fn burst_windows(&mut self, duration: Seconds) -> Vec<(Seconds, Seconds)> {
        let mut out = Vec::new();
        let mut t = Seconds::ZERO;
        while let Some(dt) = self.exp_draw(self.cfg.burst_rate_hz) {
            t += dt;
            if t >= duration {
                break;
            }
            let end = (t + self.cfg.burst_len).min(duration);
            out.push((t, end));
            self.stats.bursts += 1;
            t = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_construction() {
        // Distinct seeds and indices land on distinct streams, and the
        // function is pure.
        assert_eq!(splitmix64(1, 2), splitmix64(1, 2));
        assert_ne!(splitmix64(1, 2), splitmix64(1, 3));
        assert_ne!(splitmix64(1, 2), splitmix64(2, 2));
    }

    #[test]
    fn quiet_config_injects_nothing() {
        let mut inj = FaultInjector::new(FaultConfig::none(), 7);
        for _ in 0..1000 {
            assert_eq!(inj.control_fate(), ControlFate::clean());
        }
        assert!(inj.crash_schedule(10, Seconds::new(100.0)).is_empty());
        assert!(inj.burst_windows(Seconds::new(100.0)).is_empty());
        assert_eq!(inj.stats(), FaultStats::default());
    }

    #[test]
    fn loss_rate_is_respected() {
        let mut inj = FaultInjector::new(FaultConfig::lossy(0.3), 42);
        let n = 20_000;
        let lost = (0..n).filter(|_| inj.control_fate().lost).count();
        let frac = lost as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "loss fraction = {frac}");
        assert_eq!(inj.stats().control_lost, lost as u64);
    }

    #[test]
    fn fates_are_deterministic_per_seed() {
        let draw = |seed| {
            let mut inj = FaultInjector::new(FaultConfig::lossy(0.5), seed);
            (0..64).map(|_| inj.control_fate()).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    fn crash_schedule_is_sorted_and_bounded() {
        let cfg = FaultConfig::none().with_churn(1.0, Seconds::from_millis(100.0));
        let mut inj = FaultInjector::new(cfg, 3);
        let dur = Seconds::new(10.0);
        let crashes = inj.crash_schedule(5, dur);
        assert!(!crashes.is_empty(), "1 Hz over 10 s must crash someone");
        for w in crashes.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
        for c in &crashes {
            assert!(c.at < dur && c.at > Seconds::ZERO);
            assert!(c.node < 5);
        }
        assert_eq!(inj.stats().crashes, crashes.len() as u64);
    }

    #[test]
    fn burst_windows_are_disjoint_and_ordered() {
        let cfg = FaultConfig::none().with_bursts(2.0, Seconds::from_millis(300.0), Db::new(25.0));
        let mut inj = FaultInjector::new(cfg, 11);
        let dur = Seconds::new(5.0);
        let bursts = inj.burst_windows(dur);
        assert!(!bursts.is_empty());
        let mut prev_end = Seconds::ZERO;
        for &(s, e) in &bursts {
            assert!(s >= prev_end, "bursts overlap");
            assert!(e > s && e <= dur);
            prev_end = e;
        }
    }

    #[test]
    fn fault_stream_is_independent_of_trial_seed_stream() {
        // The injector must not replay the channel RNG: its first draw
        // differs from StdRng::seed_from_u64(seed)'s first draw.
        let seed = 5u64;
        let mut chan = StdRng::seed_from_u64(seed);
        let mut fault = StdRng::seed_from_u64(splitmix64(seed, FAULT_STREAM));
        assert_ne!(chan.gen::<u64>(), fault.gen::<u64>());
    }

    #[test]
    fn delay_never_exceeds_max() {
        let mut cfg = FaultConfig::lossy(0.0);
        cfg.control_delay_max = Seconds::from_millis(10.0);
        let mut inj = FaultInjector::new(cfg, 1);
        for _ in 0..1000 {
            let f = inj.control_fate();
            assert!(!f.lost);
            assert!(f.extra_delay >= Seconds::ZERO);
            assert!(f.extra_delay <= Seconds::from_millis(10.0));
        }
    }
}
