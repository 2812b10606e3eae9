//! The canonical SoC construction API.
//!
//! [`SocBuilder`] replaces struct-literal [`SocConfig`] construction at
//! call sites: defaults are owned by one place, new knobs (like the
//! execution engine) appear as methods instead of breaking every literal,
//! and the produced [`SocConfig`] stays a plain value for serialization
//! and diffing.
//!
//! ```
//! use vpdift_core::SecurityPolicy;
//! use vpdift_rv32::{ExecMode, Tainted};
//! use vpdift_soc::{Soc, SocBuilder};
//!
//! let cfg = Soc::<Tainted>::builder()
//!     .policy(SecurityPolicy::permissive())
//!     .ram_size(256 * 1024)
//!     .engine(ExecMode::BlockCache)
//!     .build();
//! let soc = Soc::<Tainted>::new(cfg);
//! ```

use vpdift_core::{EnforceMode, SecurityPolicy};
use vpdift_obs::{BreakSet, StopFlag};
use vpdift_rv32::ExecMode;

use crate::exec_config::{ExecConfig, ExecConfigError};
use crate::soc::SocConfig;

/// Fluent builder producing a [`SocConfig`]. Obtain one via
/// [`SocBuilder::new`], [`SocConfig::builder`] or
/// [`Soc::builder`](crate::Soc::builder); every method overrides one
/// default and returns the builder.
#[derive(Clone, Debug, Default)]
pub struct SocBuilder {
    config: SocConfig,
}

impl SocBuilder {
    /// A builder loaded with the default configuration.
    pub fn new() -> Self {
        SocBuilder { config: SocConfig::default() }
    }

    /// The single entry point from the user-facing [`ExecConfig`]: one
    /// validate/resolve path shared by the CLI, the serve `create`
    /// command, fleet job specs, and faultcamp. Knobs `ExecConfig` does
    /// not carry (seed, stop flag, …) keep their defaults — chain the
    /// usual methods after this.
    pub fn from_exec_config(cfg: &ExecConfig) -> Result<Self, ExecConfigError> {
        cfg.resolve().map(|(b, _)| b)
    }

    /// RAM size in bytes (must stay below the first MMIO region;
    /// [`Soc::new`](crate::Soc::new) asserts this).
    pub fn ram_size(mut self, bytes: usize) -> Self {
        self.config.ram_size = bytes;
        self
    }

    /// The security policy to enforce.
    pub fn policy(mut self, policy: SecurityPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Enforce (stop on violation) or record (log and continue).
    pub fn enforce(mut self, mode: EnforceMode) -> Self {
        self.config.enforce = mode;
        self
    }

    /// Seed for the sensor's data generator.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Instructions per scheduling quantum.
    pub fn quantum(mut self, insns: u32) -> Self {
        self.config.quantum = insns;
        self
    }

    /// Whether the sensor's periodic generation thread runs.
    pub fn sensor_thread(mut self, enabled: bool) -> Self {
        self.config.sensor_thread = enabled;
        self
    }

    /// Which execution engine drives the CPU.
    pub fn engine(mut self, mode: ExecMode) -> Self {
        self.config.exec = mode;
        self
    }

    /// Shares `flag` with the run loop for cooperative stops: raising it
    /// (from a [`vpdift_obs::StreamSink`] watchpoint, a serve-layer
    /// `stop`, or a fleet deadline reaper) makes
    /// [`Soc::run`](crate::Soc::run) return `SocExit::Stopped` at the
    /// next step boundary. Polled on every build, `NullSink` included —
    /// that is how deadline kills reach sessions running without
    /// observability.
    pub fn stop_flag(mut self, flag: StopFlag) -> Self {
        self.config.stop = flag;
        self
    }

    /// Shares `breaks` with the run loop: PC / instruction-count
    /// breakpoints added to the set (from any thread) stop the run with
    /// `SocExit::Stopped` *before* the matching instruction executes.
    /// Unlike the stop flag, the check is observability-gated —
    /// `NullSink` builds compile it out entirely.
    pub fn breakpoints(mut self, breaks: BreakSet) -> Self {
        self.config.breaks = breaks;
        self
    }

    /// Finalises into the [`SocConfig`] consumed by
    /// [`Soc::new`](crate::Soc::new).
    pub fn build(self) -> SocConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_config_default() {
        let built = SocBuilder::new().build();
        let def = SocConfig::default();
        assert_eq!(built.ram_size, def.ram_size);
        assert_eq!(built.enforce, def.enforce);
        assert_eq!(built.seed, def.seed);
        assert_eq!(built.quantum, def.quantum);
        assert_eq!(built.sensor_thread, def.sensor_thread);
        assert_eq!(built.exec, def.exec);
    }

    #[test]
    fn every_knob_is_reachable() {
        let stop = StopFlag::new();
        let breaks = BreakSet::new();
        let cfg = SocBuilder::new()
            .ram_size(64 * 1024)
            .policy(SecurityPolicy::permissive())
            .enforce(EnforceMode::Record)
            .seed(7)
            .quantum(128)
            .sensor_thread(false)
            .engine(ExecMode::BlockCache)
            .stop_flag(stop.clone())
            .breakpoints(breaks.clone())
            .build();
        assert_eq!(cfg.ram_size, 64 * 1024);
        assert_eq!(cfg.enforce, EnforceMode::Record);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.quantum, 128);
        assert!(!cfg.sensor_thread);
        assert_eq!(cfg.exec, ExecMode::BlockCache);
        stop.request();
        assert!(cfg.stop.is_requested(), "builder shares the caller's flag");
        breaks.add(vpdift_obs::BreakKind::Pc(0x40));
        assert!(cfg.breaks.armed(), "builder shares the caller's breakpoint set");
    }
}
