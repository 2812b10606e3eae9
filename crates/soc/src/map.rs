//! The SoC physical memory map (see DESIGN.md §6).

use vpdift_core::AddrRange;

/// RAM base address.
pub const RAM_BASE: u32 = 0x0000_0000;
/// Default RAM size (8 MiB).
pub const DEFAULT_RAM_SIZE: usize = 8 * 1024 * 1024;

/// CLINT base address.
pub const CLINT_BASE: u32 = 0x0200_0000;
/// CLINT region size.
pub const CLINT_SIZE: u32 = 0x1_0000;

/// PLIC base address.
pub const PLIC_BASE: u32 = 0x0C00_0000;
/// PLIC region size.
pub const PLIC_SIZE: u32 = 0x1000;

/// UART base address.
pub const UART_BASE: u32 = 0x1000_0000;
/// UART region size.
pub const UART_SIZE: u32 = 0x100;

/// Terminal (console input) base address.
pub const TERMINAL_BASE: u32 = 0x1001_0000;
/// Terminal region size.
pub const TERMINAL_SIZE: u32 = 0x100;

/// Sensor base address.
pub const SENSOR_BASE: u32 = 0x1002_0000;
/// Sensor region size (64-byte frame + tag register).
pub const SENSOR_SIZE: u32 = 0x100;

/// CAN controller base address.
pub const CAN_BASE: u32 = 0x1003_0000;
/// CAN region size.
pub const CAN_SIZE: u32 = 0x100;

/// AES engine base address.
pub const AES_BASE: u32 = 0x1004_0000;
/// AES region size.
pub const AES_SIZE: u32 = 0x100;

/// DMA controller base address.
pub const DMA_BASE: u32 = 0x1005_0000;
/// DMA region size.
pub const DMA_SIZE: u32 = 0x100;

/// Taint-introspection (debug) peripheral base address.
pub const TAINTDBG_BASE: u32 = 0x1006_0000;
/// Taint-introspection region size.
pub const TAINTDBG_SIZE: u32 = 0x100;

/// Watchdog timer base address.
pub const WATCHDOG_BASE: u32 = 0x1007_0000;
/// Watchdog region size.
pub const WATCHDOG_SIZE: u32 = 0x100;

/// PLIC interrupt source of the sensor.
pub const IRQ_SENSOR: u32 = 2;
/// PLIC interrupt source of the CAN controller.
pub const IRQ_CAN: u32 = 3;
/// PLIC interrupt source of the DMA controller.
pub const IRQ_DMA: u32 = 4;

/// The RAM range for a given size.
pub fn ram_range(size: usize) -> AddrRange {
    AddrRange::new(RAM_BASE, size as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The invariant behind the bus maps' infallibility (`bus::router`,
    /// and the `ram_size <= CLINT_BASE` assertion in `Soc::with_obs`):
    /// every region of the SoC map is pairwise disjoint.
    #[test]
    fn memory_map_regions_are_disjoint() {
        let regions = [
            ("ram", ram_range(DEFAULT_RAM_SIZE)),
            ("clint", AddrRange::new(CLINT_BASE, CLINT_SIZE)),
            ("plic", AddrRange::new(PLIC_BASE, PLIC_SIZE)),
            ("uart", AddrRange::new(UART_BASE, UART_SIZE)),
            ("terminal", AddrRange::new(TERMINAL_BASE, TERMINAL_SIZE)),
            ("sensor", AddrRange::new(SENSOR_BASE, SENSOR_SIZE)),
            ("can", AddrRange::new(CAN_BASE, CAN_SIZE)),
            ("aes", AddrRange::new(AES_BASE, AES_SIZE)),
            ("dma", AddrRange::new(DMA_BASE, DMA_SIZE)),
            ("taintdbg", AddrRange::new(TAINTDBG_BASE, TAINTDBG_SIZE)),
            ("watchdog", AddrRange::new(WATCHDOG_BASE, WATCHDOG_SIZE)),
        ];
        for (i, (a_name, a)) in regions.iter().enumerate() {
            for (b_name, b) in &regions[i + 1..] {
                assert!(a.end <= b.start || b.end <= a.start, "{a_name} overlaps {b_name}");
            }
        }
    }
}
