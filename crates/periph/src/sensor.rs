//! The sensor peripheral of the paper's Fig. 4, transliterated from
//! SystemC.
//!
//! A 64-byte memory-mapped data frame is refilled 40 times per simulated
//! second with random printable data, classified by the
//! run-time-configurable `data_tag` register; each refill flags the
//! sensor's interrupt ([`Sensor::take_irq`]). Reads return the tagged
//! frame bytes through the TLM data lane, exactly like the paper's
//! `Taint<uint8_t>` pointer cast.
//!
//! Fig. 4's generation thread (`wait(25 ms)`, refill, repeat) is a timed
//! device here: the SoC brings the sensor up to its clock with
//! [`Sensor::advance_to`], which performs every refill due by then.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpdift_core::{Tag, Taint};
use vpdift_kernel::SimTime;
use vpdift_tlm::{GenericPayload, TlmCommand, TlmResponse, TlmTarget};

use crate::mmio::{get_word, put_word};

/// Size of the memory-mapped data frame.
pub const FRAME_SIZE: usize = 64;

/// Offset of the `data_tag` configuration register (right after the
/// frame).
pub const DATA_TAG_REG: u32 = FRAME_SIZE as u32;

/// Refill period: 25 ms → 40 frames per second (Fig. 4, line 16).
pub const PERIOD: SimTime = SimTime::from_ms(25);

/// The sensor model.
#[derive(Debug)]
pub struct Sensor {
    data_frame: [Taint<u8>; FRAME_SIZE],
    data_tag: Tag,
    /// Set by each refill until the SoC raises the interrupt.
    irq: bool,
    rng: StdRng,
    frames_generated: u64,
    stuck_at: Option<u8>,
    /// When the next refill is due; `None` until [`Sensor::start`].
    next_refill: Option<SimTime>,
}

impl Sensor {
    /// Creates a sensor generating data classified `data_tag`. `seed`
    /// makes runs reproducible.
    pub fn new(data_tag: Tag, seed: u64) -> Self {
        Sensor {
            data_frame: [Taint::untainted(0); FRAME_SIZE],
            data_tag,
            irq: false,
            rng: StdRng::seed_from_u64(seed),
            frames_generated: 0,
            stuck_at: None,
            next_refill: None,
        }
    }

    /// Fault injection: `Some(v)` pins every subsequently generated frame
    /// byte to `v` (a stuck-at sensor); `None` restores random data.
    /// Stuck frames are still classified with the configured `data_tag` —
    /// a broken transducer does not declassify its channel.
    pub fn set_stuck(&mut self, value: Option<u8>) {
        self.stuck_at = value;
    }

    /// Starts Fig. 4's generation thread: the first refill is due one
    /// [`PERIOD`] after time zero, then one every period.
    pub fn start(&mut self) {
        self.next_refill = Some(PERIOD);
    }

    /// When the next refill is due; `None` while the thread is not
    /// started.
    pub fn next_refill(&self) -> Option<SimTime> {
        self.next_refill
    }

    /// Performs, in order, every refill due by `now`.
    pub fn advance_to(&mut self, now: SimTime) {
        while let Some(due) = self.next_refill.filter(|&due| due <= now) {
            self.generate_frame();
            self.next_refill = Some(due.saturating_add(PERIOD));
        }
    }

    /// Fills the frame with fresh random printable data of the configured
    /// security class and flags the interrupt (Fig. 4, lines 17-24).
    pub fn generate_frame(&mut self) {
        let tag = self.data_tag;
        for n in self.data_frame.iter_mut() {
            let v = match self.stuck_at {
                Some(v) => v,
                None => self.rng.gen_range(0..96) + 128,
            };
            *n = Taint::new(v, tag);
        }
        self.frames_generated += 1;
        self.irq = true;
    }

    /// Whether a refill flagged the interrupt since the last call, which
    /// clears the flag.
    pub fn take_irq(&mut self) -> bool {
        std::mem::take(&mut self.irq)
    }

    /// The currently configured generation tag.
    pub fn data_tag(&self) -> Tag {
        self.data_tag
    }

    /// Number of frames generated so far.
    pub fn frames_generated(&self) -> u64 {
        self.frames_generated
    }

    /// Direct frame access (diagnostics).
    pub fn frame(&self) -> &[Taint<u8>; FRAME_SIZE] {
        &self.data_frame
    }
}

impl TlmTarget for Sensor {
    fn transport(&mut self, p: &mut GenericPayload, _delay: &mut SimTime) {
        let addr = p.address();
        if (addr as usize) < FRAME_SIZE {
            // Frame window (reads only; the frame is sensor-driven).
            let end = addr as usize + p.len();
            if end > FRAME_SIZE {
                p.set_response(TlmResponse::BurstError);
                return;
            }
            match p.command() {
                TlmCommand::Read => {
                    let base = addr as usize;
                    for (i, b) in p.data_mut().iter_mut().enumerate() {
                        *b = self.data_frame[base + i];
                    }
                    p.set_response(TlmResponse::Ok);
                }
                _ => p.set_response(TlmResponse::CommandError),
            }
        } else if addr == DATA_TAG_REG {
            match p.command() {
                TlmCommand::Read => {
                    // The tag register itself is public configuration.
                    put_word(p, Taint::untainted(self.data_tag.bits()));
                    p.set_response(TlmResponse::Ok);
                }
                TlmCommand::Write => {
                    self.data_tag = Tag::from_bits(get_word(p).value());
                    p.set_response(TlmResponse::Ok);
                }
                TlmCommand::Ignore => p.set_response(TlmResponse::Ok),
            }
        } else {
            p.set_response(TlmResponse::AddressError);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LC: Tag = Tag::EMPTY;
    const HC: Tag = Tag::from_bits(1);

    #[test]
    fn generated_data_carries_configured_tag() {
        let mut s = Sensor::new(HC, 42);
        s.generate_frame();
        assert_eq!(s.frames_generated(), 1);
        assert!(s.frame().iter().all(|b| b.tag() == HC));
        assert!(s.frame().iter().all(|b| b.value() >= 128), "printable range per Fig. 4");
    }

    #[test]
    fn frame_reads_are_tagged_through_tlm() {
        let mut s = Sensor::new(HC, 1);
        s.generate_frame();
        let mut p = GenericPayload::read(0, 8);
        s.transport(&mut p, &mut SimTime::ZERO.clone());
        assert!(p.is_ok());
        assert!(p.data().iter().all(|b| b.tag() == HC));
    }

    #[test]
    fn data_tag_register_reconfigures_classification() {
        let mut s = Sensor::new(HC, 1);
        let mut w = GenericPayload::write_word(DATA_TAG_REG, Taint::untainted(LC.bits()));
        s.transport(&mut w, &mut SimTime::ZERO.clone());
        assert!(w.is_ok());
        assert_eq!(s.data_tag(), LC);
        s.generate_frame();
        assert!(s.frame().iter().all(|b| b.tag() == LC));
        let mut r = GenericPayload::read(DATA_TAG_REG, 4);
        s.transport(&mut r, &mut SimTime::ZERO.clone());
        assert_eq!(r.data_word::<u32>().value(), LC.bits());
    }

    #[test]
    fn refills_run_at_40_hz_and_flag_irq() {
        let mut s = Sensor::new(HC, 7);
        s.advance_to(SimTime::from_s(1));
        assert_eq!(s.frames_generated(), 0, "no refills before start");
        assert!(!s.take_irq());
        s.start();
        assert_eq!(s.next_refill(), Some(PERIOD));
        s.advance_to(SimTime::from_s(1));
        assert_eq!(s.frames_generated(), 40);
        assert_eq!(s.next_refill(), Some(SimTime::from_s(1) + PERIOD));
        assert!(s.take_irq(), "refills flag the interrupt");
        assert!(!s.take_irq(), "taking it clears the flag");
    }

    #[test]
    fn writes_to_frame_rejected() {
        let mut s = Sensor::new(HC, 1);
        let mut p = GenericPayload::write(0, &[Taint::untainted(1)]);
        s.transport(&mut p, &mut SimTime::ZERO.clone());
        assert_eq!(p.response(), TlmResponse::CommandError);
        // Straddling the frame boundary is a burst error.
        let mut p = GenericPayload::read(60, 8);
        s.transport(&mut p, &mut SimTime::ZERO.clone());
        assert_eq!(p.response(), TlmResponse::BurstError);
    }

    #[test]
    fn stuck_sensor_pins_values_but_keeps_classification() {
        let mut s = Sensor::new(HC, 3);
        s.set_stuck(Some(0x55));
        s.generate_frame();
        assert!(s.frame().iter().all(|b| b.value() == 0x55));
        assert!(s.frame().iter().all(|b| b.tag() == HC), "stuck data stays classified");
        s.set_stuck(None);
        s.generate_frame();
        assert!(s.frame().iter().any(|b| b.value() != 0x55));
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut a = Sensor::new(LC, 99);
        let mut b = Sensor::new(LC, 99);
        a.generate_frame();
        b.generate_frame();
        assert_eq!(
            a.frame().iter().map(|x| x.value()).collect::<Vec<_>>(),
            b.frame().iter().map(|x| x.value()).collect::<Vec<_>>()
        );
    }
}
