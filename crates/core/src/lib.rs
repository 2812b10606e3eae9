//! # vpdift-core — the DIFT engine
//!
//! The paper's primary contribution: a *Dynamic Information Flow Tracking*
//! engine designed to be woven into a virtual prototype so that security
//! policies can be developed and validated against embedded binaries before
//! hardware exists.
//!
//! The crate provides, bottom-up:
//!
//! * [`Tag`] — security classes as taint-atom bitsets; `LUB` is bitwise OR
//!   and `allowedFlow` is a subset test, both context-free.
//! * [`lattice`] — arbitrary finite IFP lattices with validation,
//!   the product construction (IFP-3 = IFP-1 × IFP-2), and verified
//!   compilation to the atom encoding.
//! * [`ifp`] — the ready-made lattices of the paper's Fig. 1.
//! * [`Taint<T>`](Taint) — the tagged value type of Fig. 3 with transparent
//!   operator overloading and TLM byte-lane conversion.
//! * [`policy`] — classification, clearance, execution clearance (§V-B2)
//!   and declassification grants.
//! * [`DiftEngine`] — run-time check evaluation, violation recording and
//!   statistics.
//!
//! ```
//! use vpdift_core::{ifp, DiftEngine, SecurityPolicy, Taint};
//!
//! // IFP-3 from the paper, compiled to tags.
//! let t = ifp::ifp3_tags();
//! let policy = SecurityPolicy::builder("immobilizer")
//!     .sink("can.tx", t.untrusted)        // (LC,LI) clearance on outputs
//!     .allow_declassify("aes")
//!     .build();
//! let mut engine = DiftEngine::new(policy);
//!
//! let pin = Taint::new(0x47u8, t.secret); // classified (HC,HI)
//! let challenge = Taint::new(0x11u8, t.untrusted);
//! let response = pin ^ challenge;          // toy "encryption"
//!
//! // Without declassification the response may not leave on CAN:
//! assert!(engine.check_output("can.tx", response.tag(), None, None).is_err());
//!
//! // The trusted AES peripheral declassifies the ciphertext:
//! let cap = engine.policy().grant_declassify("aes").unwrap();
//! let declassified = cap.reclassify(response, t.untrusted);
//! assert!(engine.check_output("can.tx", declassified.tag(), None, None).is_ok());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod error;
pub mod ifp;
pub mod lattice;
pub mod policy;
mod tag;
mod taint;
pub mod textpolicy;

pub use engine::{DiftEngine, EnforceMode, EngineStats, FlowObserver};
pub use error::{Violation, ViolationKind};
pub use lattice::{ClassId, CompiledLattice, Lattice, LatticeBuilder, LatticeError};
pub use policy::{AddrRange, DeclassifyCap, ExecClearance, SecurityPolicy, SecurityPolicyBuilder};
pub use tag::Tag;
pub use taint::{Taint, TaintWord};
pub use textpolicy::{parse_policy, AtomTable, PolicyParseError};
