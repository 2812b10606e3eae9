//! # vpdift-kernel — simulated time
//!
//! [`SimTime`], the picosecond clock value of the virtual prototype. The
//! paper's VP runs on the IEEE-1666 SystemC kernel; here one owner, the
//! SoC, advances the clock and brings each timed device (the Fig. 4
//! sensor, the CLINT and the watchdog) up to it, so no event scheduler is
//! needed.
//!
//! ```
//! use vpdift_kernel::SimTime;
//! // The Fig. 4 sensor refills its frame every 25 ms: 40 times a second.
//! assert_eq!(SimTime::from_s(1).as_ps() / SimTime::from_ms(25).as_ps(), 40);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod time;

pub use time::SimTime;
