//! A full sensor → DMA → memory → CAN pipeline: the "data moves around
//! the CPU" scenario from the paper's introduction. The DMA copies the
//! sensor frame without the CPU ever touching the bytes; classification
//! still arrives intact at the CAN boundary.

use vpdift_asm::{Asm, Reg};
use vpdift_core::{SecurityPolicy, Tag, ViolationKind};
use vpdift_rv32::Tainted;
use vpdift_soc::{map, Soc, SocBuilder, SocExit};

use Reg::*;

const SECRET: Tag = Tag::from_bits(0b01);
const UNTRUSTED: Tag = Tag::from_bits(0b10);

/// Guest: DMA the first 8 sensor-frame bytes into RAM, then transmit them
/// on CAN straight from the DMA destination.
fn pipeline_program() -> vpdift_asm::Program {
    let mut a = Asm::new(0);
    // DMA: SRC = sensor frame, DST = 0x6000, LEN = 8.
    a.li(T0, map::DMA_BASE as i32);
    a.li(T1, map::SENSOR_BASE as i32);
    a.sw(T1, 0x0, T0);
    a.li(T1, 0x6000);
    a.sw(T1, 0x4, T0);
    a.li(T1, 8);
    a.sw(T1, 0x8, T0);
    a.li(T1, 1);
    a.sw(T1, 0xC, T0); // start

    // CAN: stage the 8 DMA'd bytes and send.
    a.li(T0, map::CAN_BASE as i32);
    a.li(T1, 0x123);
    a.sw(T1, 0x00, T0); // TX_ID
    a.li(T1, 8);
    a.sw(T1, 0x04, T0); // TX_DLC
    a.li(T2, 0x6000);
    a.li(T3, 0);
    a.label("copy");
    a.add(T4, T2, T3);
    a.lbu(T5, 0, T4);
    a.add(T4, T0, T3);
    a.sb(T5, 0x08, T4);
    a.addi(T3, T3, 1);
    a.li(T4, 8);
    a.blt(T3, T4, "copy");
    a.li(T1, 1);
    a.sw(T1, 0x10, T0); // TX_GO
    a.ebreak();
    a.assemble().unwrap()
}

fn soc_with(sensor_tag: Tag, can_clearance: Tag) -> Soc<Tainted> {
    let policy = SecurityPolicy::builder("pipeline")
        .source("sensor.data", sensor_tag)
        .sink("can.tx", can_clearance)
        .build();
    let cfg = SocBuilder::new().policy(policy).sensor_thread(false).build();
    let mut soc = Soc::<Tainted>::new(cfg);
    soc.load_program(&pipeline_program());
    soc.sensor_mut().generate_frame();
    soc
}

#[test]
fn public_sensor_data_flows_to_can() {
    let mut soc = soc_with(UNTRUSTED, UNTRUSTED);
    assert_eq!(soc.run(100_000), SocExit::Break);
    let frame = soc.can_host().recv().expect("frame transmitted");
    assert_eq!(frame.dlc, 8);
    assert!(frame.bytes().iter().all(|&b| b >= 128), "sensor data range");
    assert_eq!(soc.dma().bytes_moved(), 8);
}

#[test]
fn confidential_sensor_data_is_stopped_at_can_despite_dma() {
    // The CPU never reads the frame — only the DMA moves it. The tags
    // still arrive at the CAN TX clearance check.
    let mut soc = soc_with(SECRET, UNTRUSTED);
    match soc.run(100_000) {
        SocExit::Violation(v) => {
            assert_eq!(v.kind, ViolationKind::Output { sink: "can.tx".into() });
            assert_eq!(v.tag, SECRET);
        }
        other => panic!("secret sensor frame escaped on CAN: {other:?}"),
    }
    assert!(soc.can_host().recv().is_none());
    // The DMA itself completed — the block is at the *output* boundary.
    assert_eq!(soc.dma().bytes_moved(), 8);
}

#[test]
fn dma_destination_carries_the_sensor_tag() {
    let mut soc = soc_with(SECRET, SECRET.lub(UNTRUSTED));
    assert_eq!(soc.run(100_000), SocExit::Break, "permissive CAN clearance");
    let ram = soc.ram();
    for i in 0..8 {
        assert_eq!(ram.byte_at(0x6000 + i).unwrap().1, SECRET, "byte {i}");
    }
}
