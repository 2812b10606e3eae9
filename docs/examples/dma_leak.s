# DMA the classified key byte straight to the UART. The CPU never loads
# it, so only the check on the DMA's port to the UART can catch the leak.
        li   t0, 0x10050000     # DMA
        li   t1, 0x2000         # the (classified) key
        sw   t1, 0(t0)          # SRC
        li   t1, 0x10000000     # UART TXDATA
        sw   t1, 4(t0)          # DST
        li   t1, 1              # one byte
        sw   t1, 8(t0)          # LEN
        sw   t1, 12(t0)         # CTRL: start
        ebreak
