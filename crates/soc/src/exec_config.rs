//! One parse/validate path for every way a VP gets configured.
//!
//! Before this module, the program/policy/mode/engine/enforce/quantum/
//! ram_size parameter sprawl was duplicated — with subtly different
//! validation — across the CLI argument parser, the serve `create`
//! command, `fleet --program`, and the faultcamp binary. [`ExecConfig`]
//! is the shared front door: string knobs parse through one place into
//! one typed error ([`ExecConfigError`]), limits are checked *before*
//! construction (a bad `ram_size` is an error, not the `Soc::with_obs`
//! assertion panic it used to be), and [`SocBuilder::from_exec_config`]
//! turns the validated value into the canonical builder.
//!
//! ```
//! use vpdift_soc::{ExecConfig, Soc, SocBuilder};
//! use vpdift_rv32::Tainted;
//!
//! let mut cfg = ExecConfig::default();
//! cfg.set_engine_str("block").unwrap();
//! cfg.quantum = Some(256);
//! let soc = Soc::<Tainted>::new(SocBuilder::from_exec_config(&cfg).unwrap().build());
//! # let _ = soc;
//! ```

use core::fmt;
use std::str::FromStr;

use vpdift_core::{parse_policy, AtomTable, EnforceMode, PolicyParseError, SecurityPolicy};
use vpdift_rv32::ExecMode;

use crate::builder::SocBuilder;
use crate::map;

/// The user-facing execution configuration: everything a CLI flag set, a
/// serve `create` request, or a fleet job spec can say about how to run a
/// guest, *before* it becomes a [`SocConfig`](crate::SocConfig).
///
/// `None` means "use the [`SocConfig`](crate::SocConfig) default".
/// String-valued knobs arrive through the `set_*_str` parsers so every
/// entry path rejects the same inputs with the same
/// [`ExecConfigError`].
#[derive(Clone, Debug, PartialEq)]
pub struct ExecConfig {
    /// DIFT-enabled VP+ (`true`, the default) or the plain VP.
    pub tainted: bool,
    /// Which execution engine drives the CPU.
    pub engine: ExecMode,
    /// Enforce (stop on violation) or record (log and continue).
    pub enforce: EnforceMode,
    /// Instructions per scheduling quantum; must be ≥ 1 when set.
    pub quantum: Option<u32>,
    /// RAM size in bytes; must be `1..=`[`map::CLINT_BASE`] when set.
    pub ram_size: Option<usize>,
    /// Policy source text (the `.policy` DSL); `None` runs permissive.
    pub policy: Option<String>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            tainted: true,
            engine: ExecMode::default(),
            enforce: EnforceMode::Enforce,
            quantum: None,
            ram_size: None,
            policy: None,
        }
    }
}

/// Why an [`ExecConfig`] could not be parsed, validated, or resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecConfigError {
    /// Not `tainted`/`plain`.
    BadMode(String),
    /// Not a known engine name (see [`ExecMode::from_str`]).
    BadEngine(String),
    /// Not `enforce`/`record`.
    BadEnforce(String),
    /// `quantum` of 0 — the run loop could never retire an instruction.
    BadQuantum,
    /// `ram_size` of 0 or overlapping the MMIO hole at
    /// [`map::CLINT_BASE`].
    BadRamSize(usize),
    /// The policy text failed to parse.
    BadPolicy(PolicyParseError),
}

impl fmt::Display for ExecConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecConfigError::BadMode(s) => {
                write!(f, "unknown mode '{s}' (expected 'tainted' or 'plain')")
            }
            ExecConfigError::BadEngine(s) => f.write_str(s),
            ExecConfigError::BadEnforce(s) => {
                write!(f, "unknown enforce mode '{s}' (expected 'enforce' or 'record')")
            }
            ExecConfigError::BadQuantum => f.write_str("quantum must be >= 1"),
            ExecConfigError::BadRamSize(n) => write!(
                f,
                "ram_size {n} out of range (must be 1..={:#x}, the first MMIO address)",
                map::CLINT_BASE
            ),
            ExecConfigError::BadPolicy(e) => write!(f, "bad policy: {e}"),
        }
    }
}

impl std::error::Error for ExecConfigError {}

impl From<PolicyParseError> for ExecConfigError {
    fn from(e: PolicyParseError) -> Self {
        ExecConfigError::BadPolicy(e)
    }
}

impl ExecConfig {
    /// Parses `tainted`/`taint` or `plain` into [`ExecConfig::tainted`].
    pub fn set_mode_str(&mut self, s: &str) -> Result<(), ExecConfigError> {
        self.tainted = match s {
            "tainted" | "taint" => true,
            "plain" => false,
            other => return Err(ExecConfigError::BadMode(other.to_owned())),
        };
        Ok(())
    }

    /// Parses an engine name (`interp`, `block`, …) into
    /// [`ExecConfig::engine`].
    pub fn set_engine_str(&mut self, s: &str) -> Result<(), ExecConfigError> {
        self.engine = ExecMode::from_str(s).map_err(ExecConfigError::BadEngine)?;
        Ok(())
    }

    /// Parses `enforce` or `record` into [`ExecConfig::enforce`].
    pub fn set_enforce_str(&mut self, s: &str) -> Result<(), ExecConfigError> {
        self.enforce = match s {
            "enforce" => EnforceMode::Enforce,
            "record" => EnforceMode::Record,
            other => return Err(ExecConfigError::BadEnforce(other.to_owned())),
        };
        Ok(())
    }

    /// Checks the numeric limits without resolving the policy. Catches
    /// the two historical construction-time footguns: a `quantum` of 0
    /// would spin [`Soc::run`](crate::Soc::run) forever without retiring
    /// an instruction, and a `ram_size` past [`map::CLINT_BASE`] used to
    /// reach the assertion inside `Soc::with_obs` and panic the host
    /// (the serve layer would take the whole server down on one bad
    /// client request).
    pub fn validate(&self) -> Result<(), ExecConfigError> {
        if self.quantum == Some(0) {
            return Err(ExecConfigError::BadQuantum);
        }
        if let Some(n) = self.ram_size {
            if n == 0 || n > map::CLINT_BASE as usize {
                return Err(ExecConfigError::BadRamSize(n));
            }
        }
        Ok(())
    }

    /// Validates, parses the policy text, and produces the
    /// [`SocBuilder`] plus the policy's [`AtomTable`] (empty when no
    /// policy was given — the VP runs permissive). Callers that don't
    /// need atom names can use [`SocBuilder::from_exec_config`].
    pub fn resolve(&self) -> Result<(SocBuilder, AtomTable), ExecConfigError> {
        self.validate()?;
        let (policy, atoms) = match &self.policy {
            Some(src) => parse_policy(src)?,
            None => (SecurityPolicy::permissive(), AtomTable::from_names::<_, String>([])),
        };
        let mut b = SocBuilder::new().policy(policy).engine(self.engine).enforce(self.enforce);
        if let Some(q) = self.quantum {
            b = b.quantum(q);
        }
        if let Some(n) = self.ram_size {
            b = b.ram_size(n);
        }
        Ok((b, atoms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_resolves_to_builder_defaults() {
        let (b, atoms) = ExecConfig::default().resolve().unwrap();
        let cfg = b.build();
        let def = crate::SocConfig::default();
        assert_eq!(cfg.ram_size, def.ram_size);
        assert_eq!(cfg.quantum, def.quantum);
        assert_eq!(cfg.exec, def.exec);
        assert_eq!(cfg.exec, ExecMode::BlockCache);
        assert_eq!(cfg.enforce, EnforceMode::Enforce);
        assert!(atoms.names().is_empty());
    }

    #[test]
    fn string_knobs_parse_through_one_path() {
        let mut c = ExecConfig::default();
        c.set_mode_str("plain").unwrap();
        c.set_engine_str("block").unwrap();
        c.set_enforce_str("record").unwrap();
        assert!(!c.tainted);
        assert_eq!(c.engine, ExecMode::BlockCache);
        assert_eq!(c.enforce, EnforceMode::Record);
        assert!(matches!(
            c.set_mode_str("chartreuse"),
            Err(ExecConfigError::BadMode(s)) if s == "chartreuse"
        ));
        assert!(matches!(c.set_engine_str("jit"), Err(ExecConfigError::BadEngine(_))));
        assert!(matches!(c.set_enforce_str("warn"), Err(ExecConfigError::BadEnforce(_))));
    }

    #[test]
    fn limits_are_errors_not_panics() {
        let mut c = ExecConfig { quantum: Some(0), ..ExecConfig::default() };
        assert_eq!(c.validate(), Err(ExecConfigError::BadQuantum));
        c.quantum = Some(1);
        c.ram_size = Some(0);
        assert!(matches!(c.validate(), Err(ExecConfigError::BadRamSize(0))));
        c.ram_size = Some(map::CLINT_BASE as usize + 1);
        assert!(matches!(c.resolve(), Err(ExecConfigError::BadRamSize(_))));
        c.ram_size = Some(map::CLINT_BASE as usize);
        assert!(c.validate().is_ok(), "the full hole below MMIO is usable");
    }

    #[test]
    fn policy_text_parses_and_exposes_atoms() {
        let cfg = ExecConfig {
            policy: Some("policy t\natom KEY\nclassify 0x2000 +16 KEY\nsink uart.tx KEY\n".into()),
            ..ExecConfig::default()
        };
        let (_, atoms) = cfg.resolve().unwrap();
        assert!(atoms.names().iter().any(|n| n == "KEY"));
        let bad = ExecConfig { policy: Some("classify nonsense".into()), ..ExecConfig::default() };
        assert!(matches!(bad.resolve(), Err(ExecConfigError::BadPolicy(_))));
    }

    #[test]
    fn from_exec_config_is_the_single_entry_point() {
        let mut c = ExecConfig::default();
        c.set_engine_str("block").unwrap();
        c.quantum = Some(64);
        c.ram_size = Some(128 * 1024);
        let cfg = SocBuilder::from_exec_config(&c).unwrap().build();
        assert_eq!(cfg.exec, ExecMode::BlockCache);
        assert_eq!(cfg.quantum, 64);
        assert_eq!(cfg.ram_size, 128 * 1024);
    }
}
