# Echo the first byte of each of three fresh sensor frames to the UART.
# mstatus.MIE stays clear: wfi wakes on the sensor's PLIC source without
# trapping, and the claim clears it before the next wait.
        li   t0, 0x0c000000     # PLIC
        li   t1, 4              # source 2: the sensor
        sw   t1, 4(t0)          # ENABLE
        li   t1, 0x800          # mie.MEIE
        csrw mie, t1
        li   t2, 0x10020000     # sensor frame
        li   t3, 0x10000000     # UART
        li   t4, 3              # refills to echo
wait:
        wfi
        lw   t1, 8(t0)          # CLAIM
        lbu  t5, 0(t2)
        sw   t5, 0(t3)
        addi t4, t4, -1
        bnez t4, wait
        ebreak
