//! The host-side engine ECU model: the other end of the CAN link in the
//! challenge-response protocol. It holds the same PIN as the immobilizer
//! and verifies responses by performing the same encryption.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vpdift_periph::{Aes128, CanFrame, CanHostEndpoint};

use crate::firmware::{CHALLENGE_ID, RESPONSE_ID};

/// The engine ECU.
#[derive(Debug)]
pub struct EngineEcu {
    pin: [u8; 16],
    rng: StdRng,
    authentications: u32,
}

impl EngineEcu {
    /// Creates an ECU holding `pin`; `seed` makes challenge sequences
    /// reproducible.
    pub fn new(pin: [u8; 16], seed: u64) -> Self {
        EngineEcu { pin, rng: StdRng::seed_from_u64(seed), authentications: 0 }
    }

    /// Number of successful authentications so far.
    pub fn authentications(&self) -> u32 {
        self.authentications
    }

    /// Draws a fresh 8-byte challenge.
    pub fn next_challenge(&mut self) -> [u8; 8] {
        let mut c = [0u8; 8];
        self.rng.fill(&mut c);
        c
    }

    /// The response the immobilizer must produce for `challenge`:
    /// `AES-128(PIN, challenge ‖ challenge)`.
    pub fn expected_response(&self, challenge: &[u8; 8]) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(challenge);
        block[8..].copy_from_slice(challenge);
        Aes128::new(&self.pin).encrypt_block(&block)
    }

    /// Sends `challenge` to the immobilizer over CAN with bounded retry
    /// (up to 4 attempts), so injected frame loss degrades to retries
    /// instead of a silently lost round. Returns `false` when every
    /// attempt was dropped by a line fault; on a fault-free wire this
    /// never fails.
    pub fn send_challenge(&self, can: &mut CanHostEndpoint, challenge: &[u8; 8]) -> bool {
        can.send_with_retry(CanFrame::new(CHALLENGE_ID, challenge), 4).is_some()
    }

    /// Collects the two response halves from CAN and verifies them.
    /// Returns `true` on a correct response, incrementing the
    /// authentication counter.
    pub fn verify_response(&mut self, can: &mut CanHostEndpoint, challenge: &[u8; 8]) -> bool {
        let Some(lo) = can.recv() else { return false };
        let Some(hi) = can.recv() else { return false };
        if lo.id != RESPONSE_ID || hi.id != RESPONSE_ID || lo.dlc != 8 || hi.dlc != 8 {
            return false;
        }
        let mut response = [0u8; 16];
        response[..8].copy_from_slice(&lo.bytes());
        response[8..].copy_from_slice(&hi.bytes());
        let ok = response == self.expected_response(challenge);
        if ok {
            self.authentications += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::PIN;

    #[test]
    fn expected_response_is_aes_of_doubled_challenge() {
        let ecu = EngineEcu::new(PIN, 1);
        let ch = [1, 2, 3, 4, 5, 6, 7, 8];
        let want = {
            let mut block = [0u8; 16];
            block[..8].copy_from_slice(&ch);
            block[8..].copy_from_slice(&ch);
            Aes128::new(&PIN).encrypt_block(&block)
        };
        assert_eq!(ecu.expected_response(&ch), want);
    }

    #[test]
    fn challenges_are_reproducible_and_distinct() {
        let mut a = EngineEcu::new(PIN, 2);
        let mut b = EngineEcu::new(PIN, 2);
        let c1 = a.next_challenge();
        assert_eq!(c1, b.next_challenge(), "same seed, same sequence");
        let c2 = a.next_challenge();
        assert_ne!(c1, c2, "fresh challenge every round");
        assert_ne!(a.expected_response(&c1), a.expected_response(&c2));
        assert_eq!(a.authentications(), 0);
    }

    #[test]
    fn verify_fails_on_missing_response() {
        let mut host = CanHostEndpoint::default();
        let mut ecu = EngineEcu::new(PIN, 3);
        let ch = ecu.next_challenge();
        assert!(!ecu.verify_response(&mut host, &ch), "no frames queued");
        assert_eq!(ecu.authentications(), 0);
    }
}
