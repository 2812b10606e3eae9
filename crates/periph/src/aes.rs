//! The memory-mapped AES-128 engine with declassification.
//!
//! The case-study policy grants *only* this peripheral the right to
//! declassify (paper §IV-A): ciphertext computed from a secret key is
//! re-tagged to the configured output class — by default `(LC,LI)` — so
//! encrypted responses may leave on the CAN bus while the key itself never
//! can.

use vpdift_core::{DeclassifyCap, Tag, Taint};
use vpdift_kernel::SimTime;
use vpdift_obs::{DynObs, ObsEvent};
use vpdift_tlm::{GenericPayload, Loan, TlmCommand, TlmResponse, TlmTarget};

use crate::aes_core::Aes128;
use crate::mmio::{get_word, put_word};

/// Register map (offsets).
pub mod regs {
    /// Write window: the 16-byte key.
    pub const KEY: u32 = 0x00;
    /// Write window: the 16-byte input block.
    pub const DATA_IN: u32 = 0x10;
    /// Read window: the 16-byte result block.
    pub const DATA_OUT: u32 = 0x20;
    /// Write: 1 = encrypt, 2 = decrypt.
    pub const CTRL: u32 = 0x30;
    /// Read: bit 0 = done.
    pub const STATUS: u32 = 0x34;
}

/// `CTRL` command: encrypt the input block.
pub const CTRL_ENCRYPT: u32 = 1;
/// `CTRL` command: decrypt the input block.
pub const CTRL_DECRYPT: u32 = 2;

/// The AES-128 peripheral.
#[derive(Debug)]
pub struct AesEngine {
    key: [Taint<u8>; 16],
    input: [Taint<u8>; 16],
    output: [Taint<u8>; 16],
    done: bool,
    declassify: Option<DeclassifyCap>,
    output_tag: Tag,
    operations: u64,
}

impl AesEngine {
    /// Creates the engine. With `declassify` present, every result block is
    /// re-tagged to `output_tag`; without it, results keep the LUB of the
    /// key and input tags (and typically cannot leave the system).
    pub fn new(declassify: Option<DeclassifyCap>, output_tag: Tag) -> Self {
        AesEngine {
            key: [Taint::untainted(0); 16],
            input: [Taint::untainted(0); 16],
            output: [Taint::untainted(0); 16],
            done: false,
            declassify,
            output_tag,
            operations: 0,
        }
    }

    /// Completed operations count.
    pub fn operations(&self) -> u64 {
        self.operations
    }

    /// Runs `cmd` on the staged block; a declassification is reported to
    /// `obs`, if any.
    fn execute(&mut self, cmd: u32, obs: Option<&mut (dyn DynObs + 'static)>) -> bool {
        let mut key = [0u8; 16];
        let mut input = [0u8; 16];
        let mut data_tag = Tag::EMPTY;
        for i in 0..16 {
            key[i] = self.key[i].value();
            input[i] = self.input[i].value();
            data_tag = data_tag.lub(self.key[i].tag()).lub(self.input[i].tag());
        }
        let aes = Aes128::new(&key);
        let result = match cmd {
            CTRL_ENCRYPT => aes.encrypt_block(&input),
            CTRL_DECRYPT => aes.decrypt_block(&input),
            _ => return false,
        };
        for (o, &b) in self.output.iter_mut().zip(&result) {
            let tagged = Taint::new(b, data_tag);
            *o = match &self.declassify {
                // Trusted declassification: ciphertext becomes (LC,LI).
                Some(cap) => cap.reclassify(tagged, self.output_tag),
                None => tagged,
            };
        }
        if let (Some(obs), true) = (obs, self.declassify.is_some()) {
            obs.dyn_event(&ObsEvent::Declassify {
                component: "aes".into(),
                before: data_tag,
                after: self.output[0].tag(),
            });
        }
        self.done = true;
        self.operations += 1;
        true
    }
}

fn window_write(buf: &mut [Taint<u8>; 16], offset: usize, p: &mut GenericPayload) {
    if offset + p.len() > 16 {
        p.set_response(TlmResponse::BurstError);
        return;
    }
    for (i, b) in p.data().iter().enumerate() {
        buf[offset + i] = *b;
    }
    p.set_response(TlmResponse::Ok);
}

fn window_read(buf: &[Taint<u8>; 16], offset: usize, p: &mut GenericPayload) {
    if offset + p.len() > 16 {
        p.set_response(TlmResponse::BurstError);
        return;
    }
    for (i, b) in p.data_mut().iter_mut().enumerate() {
        *b = buf[offset + i];
    }
    p.set_response(TlmResponse::Ok);
}

impl AesEngine {
    /// Serves one register access, reporting to `obs`, if any.
    fn access(&mut self, p: &mut GenericPayload, obs: Option<&mut (dyn DynObs + 'static)>) {
        let addr = p.address();
        match p.command() {
            TlmCommand::Write => match addr {
                a if (regs::KEY..regs::KEY + 16).contains(&a) => {
                    self.done = false;
                    let mut key = self.key;
                    window_write(&mut key, (a - regs::KEY) as usize, p);
                    self.key = key;
                }
                a if (regs::DATA_IN..regs::DATA_IN + 16).contains(&a) => {
                    self.done = false;
                    let mut input = self.input;
                    window_write(&mut input, (a - regs::DATA_IN) as usize, p);
                    self.input = input;
                }
                regs::CTRL => {
                    let cmd = get_word(p).value();
                    if self.execute(cmd, obs) {
                        p.set_response(TlmResponse::Ok);
                    } else {
                        p.set_response(TlmResponse::CommandError);
                    }
                }
                _ => p.set_response(TlmResponse::CommandError),
            },
            TlmCommand::Read => match addr {
                a if (regs::DATA_OUT..regs::DATA_OUT + 16).contains(&a) => {
                    window_read(&self.output, (a - regs::DATA_OUT) as usize, p);
                }
                regs::STATUS => {
                    put_word(p, Taint::untainted(self.done as u32));
                    p.set_response(TlmResponse::Ok);
                }
                _ => p.set_response(TlmResponse::CommandError),
            },
            TlmCommand::Ignore => p.set_response(TlmResponse::Ok),
        }
    }
}

impl TlmTarget for AesEngine {
    fn transport(&mut self, p: &mut GenericPayload, _delay: &mut SimTime) {
        self.access(p, None);
    }

    /// Reports each declassification to the lent sink.
    fn transport_with(
        &mut self,
        p: &mut GenericPayload,
        _delay: &mut SimTime,
        loan: &mut Loan<'_>,
    ) {
        self.access(p, loan.obs.as_deref_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpdift_core::SecurityPolicy;

    const SECRET: Tag = Tag::from_bits(0b01);
    const UNTRUSTED: Tag = Tag::from_bits(0b10);

    fn write_block(e: &mut AesEngine, base: u32, bytes: &[u8; 16], tag: Tag) {
        let lanes: Vec<Taint<u8>> = bytes.iter().map(|&b| Taint::new(b, tag)).collect();
        let mut p = GenericPayload::write(base, &lanes);
        e.transport(&mut p, &mut SimTime::ZERO.clone());
        assert!(p.is_ok());
    }

    fn read_block(e: &mut AesEngine, base: u32) -> ([u8; 16], Tag) {
        let mut p = GenericPayload::read(base, 16);
        e.transport(&mut p, &mut SimTime::ZERO.clone());
        assert!(p.is_ok());
        let mut out = [0u8; 16];
        let mut tag = Tag::EMPTY;
        for (i, b) in p.data().iter().enumerate() {
            out[i] = b.value();
            tag = tag.lub(b.tag());
        }
        (out, tag)
    }

    fn start(e: &mut AesEngine, cmd: u32) {
        let mut p = GenericPayload::write_word(regs::CTRL, Taint::untainted(cmd));
        e.transport(&mut p, &mut SimTime::ZERO.clone());
        assert!(p.is_ok());
    }

    fn hex(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn encrypt_matches_fips_and_declassifies() {
        let policy = SecurityPolicy::builder("t").allow_declassify("aes").build();
        let cap = policy.grant_declassify("aes").unwrap();
        let mut e = AesEngine::new(Some(cap), UNTRUSTED);

        write_block(&mut e, regs::KEY, &hex("000102030405060708090a0b0c0d0e0f"), SECRET);
        write_block(&mut e, regs::DATA_IN, &hex("00112233445566778899aabbccddeeff"), UNTRUSTED);
        start(&mut e, CTRL_ENCRYPT);

        let (ct, tag) = read_block(&mut e, regs::DATA_OUT);
        assert_eq!(ct, hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
        assert_eq!(tag, UNTRUSTED, "ciphertext declassified to the output class");
        assert_eq!(e.operations(), 1);
    }

    #[test]
    fn without_grant_ciphertext_keeps_secret_tag() {
        let mut e = AesEngine::new(None, Tag::EMPTY);
        write_block(&mut e, regs::KEY, &hex("000102030405060708090a0b0c0d0e0f"), SECRET);
        write_block(&mut e, regs::DATA_IN, &hex("00112233445566778899aabbccddeeff"), UNTRUSTED);
        start(&mut e, CTRL_ENCRYPT);
        let (_, tag) = read_block(&mut e, regs::DATA_OUT);
        assert_eq!(tag, SECRET.lub(UNTRUSTED), "no declassification without the grant");
    }

    #[test]
    fn decrypt_round_trips() {
        let mut e = AesEngine::new(None, Tag::EMPTY);
        let pt = hex("00112233445566778899aabbccddeeff");
        write_block(&mut e, regs::KEY, &hex("000102030405060708090a0b0c0d0e0f"), Tag::EMPTY);
        write_block(&mut e, regs::DATA_IN, &pt, Tag::EMPTY);
        start(&mut e, CTRL_ENCRYPT);
        let (ct, _) = read_block(&mut e, regs::DATA_OUT);
        write_block(&mut e, regs::DATA_IN, &ct, Tag::EMPTY);
        start(&mut e, CTRL_DECRYPT);
        let (back, _) = read_block(&mut e, regs::DATA_OUT);
        assert_eq!(back, pt);
    }

    #[test]
    fn status_tracks_done() {
        let mut e = AesEngine::new(None, Tag::EMPTY);
        let mut p = GenericPayload::read(regs::STATUS, 4);
        e.transport(&mut p, &mut SimTime::ZERO.clone());
        assert_eq!(p.data_word::<u32>().value(), 0);
        start(&mut e, CTRL_ENCRYPT);
        let mut p = GenericPayload::read(regs::STATUS, 4);
        e.transport(&mut p, &mut SimTime::ZERO.clone());
        assert_eq!(p.data_word::<u32>().value(), 1);
        // Writing a new key clears done.
        write_block(&mut e, regs::KEY, &[0u8; 16], Tag::EMPTY);
        let mut p = GenericPayload::read(regs::STATUS, 4);
        e.transport(&mut p, &mut SimTime::ZERO.clone());
        assert_eq!(p.data_word::<u32>().value(), 0);
    }

    #[test]
    fn invalid_ctrl_command_rejected() {
        let mut e = AesEngine::new(None, Tag::EMPTY);
        let mut p = GenericPayload::write_word(regs::CTRL, Taint::untainted(9u32));
        e.transport(&mut p, &mut SimTime::ZERO.clone());
        assert_eq!(p.response(), TlmResponse::CommandError);
    }
}
