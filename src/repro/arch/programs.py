"""Workload programs for the fault-injection studies.

Each factory returns a :class:`repro.arch.isa.Program` with deterministic
initial data and a declared output region, so SDC detection can compare a
faulty run's output words against the golden run.
"""

from __future__ import annotations

import numpy as np

from repro.arch.isa import (
    Program,
    add,
    addi,
    beq,
    blt,
    halt,
    jmp,
    ld,
    lui,
    mul,
    nop,
    shr,
    st,
    xor,
)


def _data(n, seed, high=100):
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.integers(1, high, size=n)]


def vector_add(n=16, seed=0):
    """C[i] = A[i] + B[i]; A at 0, B at 100, C at 200."""
    a = _data(n, seed)
    b = _data(n, seed + 1)
    memory = {i: a[i] for i in range(n)}
    memory.update({100 + i: b[i] for i in range(n)})
    instructions = [
        addi(1, 0, 0),      # 0: i = 0
        lui(2, n),          # 1: n
        beq(1, 2, 6),       # 2: if i == n goto 9
        ld(3, 1, 0),        # 3: A[i]
        ld(4, 1, 100),      # 4: B[i]
        add(5, 3, 4),       # 5
        st(5, 1, 200),      # 6: C[i]
        addi(1, 1, 1),      # 7
        jmp(-7),            # 8: goto 2
        halt(),             # 9
    ]
    return Program("vector_add", instructions, output_range=(200, n), initial_memory=memory)


def dot_product(n=16, seed=1):
    """result = sum(A[i] * B[i]); stored at 300."""
    a = _data(n, seed)
    b = _data(n, seed + 1)
    memory = {i: a[i] for i in range(n)}
    memory.update({100 + i: b[i] for i in range(n)})
    instructions = [
        addi(1, 0, 0),      # 0: i
        lui(2, n),          # 1: n
        addi(6, 0, 0),      # 2: acc
        beq(1, 2, 6),       # 3: if i == n goto 10
        ld(3, 1, 0),        # 4
        ld(4, 1, 100),      # 5
        mul(5, 3, 4),       # 6
        add(6, 6, 5),       # 7
        addi(1, 1, 1),      # 8
        jmp(-7),            # 9: goto 3
        st(6, 0, 300),      # 10
        halt(),             # 11
    ]
    return Program("dot_product", instructions, output_range=(300, 1), initial_memory=memory)


def matmul(k=4, seed=2):
    """C = A @ B for k x k matrices; A at 0, B at 100, C at 200."""
    a = _data(k * k, seed, high=20)
    b = _data(k * k, seed + 1, high=20)
    memory = {i: a[i] for i in range(k * k)}
    memory.update({100 + i: b[i] for i in range(k * k)})
    instructions = [
        lui(4, k),          # 0
        addi(1, 0, 0),      # 1: i = 0
        beq(1, 4, 22),      # 2: if i == k goto 25
        addi(2, 0, 0),      # 3: j = 0
        beq(2, 4, 18),      # 4: if j == k goto 23
        addi(3, 0, 0),      # 5: l = 0
        addi(5, 0, 0),      # 6: acc = 0
        beq(3, 4, 10),      # 7: if l == k goto 18
        mul(6, 1, 4),       # 8: i*k
        add(6, 6, 3),       # 9: i*k + l
        ld(7, 6, 0),        # 10: A[i,l]
        mul(8, 3, 4),       # 11: l*k
        add(8, 8, 2),       # 12: l*k + j
        ld(9, 8, 100),      # 13: B[l,j]
        mul(10, 7, 9),      # 14
        add(5, 5, 10),      # 15
        addi(3, 3, 1),      # 16
        jmp(-11),           # 17: goto 7
        mul(6, 1, 4),       # 18
        add(6, 6, 2),       # 19: i*k + j
        st(5, 6, 200),      # 20: C[i,j]
        addi(2, 2, 1),      # 21
        jmp(-19),           # 22: goto 4
        addi(1, 1, 1),      # 23
        jmp(-23),           # 24: goto 2
        halt(),             # 25
    ]
    return Program("matmul", instructions, output_range=(200, k * k), initial_memory=memory)


def bubble_sort(n=10, seed=3):
    """In-place ascending sort of n words at address 0."""
    data = _data(n, seed)
    memory = {i: data[i] for i in range(n)}
    instructions = [
        lui(1, n),          # 0
        addi(2, 0, 0),      # 1: i = 0
        beq(2, 1, 14),      # 2: if i == n goto 17
        addi(3, 0, 0),      # 3: j = 0
        addi(4, 1, -1),     # 4: n - 1
        beq(3, 4, 9),       # 5: if j == n-1 goto 15
        ld(5, 3, 0),        # 6: a[j]
        ld(6, 3, 1),        # 7: a[j+1]
        blt(5, 6, 4),       # 8: ordered -> goto 13
        st(6, 3, 0),        # 9: swap
        st(5, 3, 1),        # 10
        nop(),              # 11
        nop(),              # 12
        addi(3, 3, 1),      # 13
        jmp(-10),           # 14: goto 5
        addi(2, 2, 1),      # 15
        jmp(-15),           # 16: goto 2
        halt(),             # 17
    ]
    return Program("bubble_sort", instructions, output_range=(0, n), initial_memory=memory)


def fibonacci(n=15):
    """First n Fibonacci numbers into addresses 0..n-1."""
    instructions = [
        addi(1, 0, 0),      # 0: a = 0
        addi(2, 0, 1),      # 1: b = 1
        addi(3, 0, 0),      # 2: i = 0
        lui(4, n),          # 3
        beq(3, 4, 6),       # 4: if i == n goto 11
        st(1, 3, 0),        # 5: mem[i] = a
        add(5, 1, 2),       # 6
        add(1, 2, 0),       # 7: a = b
        add(2, 5, 0),       # 8: b = a_old + b_old
        addi(3, 3, 1),      # 9
        jmp(-7),            # 10: goto 4
        halt(),             # 11
    ]
    return Program("fibonacci", instructions, output_range=(0, n))


def checksum(n=24, seed=4):
    """XOR-fold of n words at 0; result at 400."""
    data = _data(n, seed, high=2**16)
    memory = {i: data[i] for i in range(n)}
    instructions = [
        addi(1, 0, 0),      # 0: i
        lui(2, n),          # 1
        addi(3, 0, 0),      # 2: acc
        beq(1, 2, 4),       # 3: if i == n goto 8
        ld(4, 1, 0),        # 4
        xor(3, 3, 4),       # 5
        addi(1, 1, 1),      # 6
        jmp(-5),            # 7: goto 3
        st(3, 0, 400),      # 8
        halt(),             # 9
    ]
    return Program("checksum", instructions, output_range=(400, 1), initial_memory=memory)


def fir_filter(n=20, k=4, seed=5):
    """FIR convolution: y[i] = sum_j h[j] * x[i+j].

    Taps ``h`` at 0, signal ``x`` at 100, output ``y`` at 200 — the
    multiply-accumulate sliding window at the heart of sub-band coding
    blocks like the paper's ADPCM workload.
    """
    taps = _data(k, seed, high=8)
    signal = _data(n, seed + 1, high=50)
    n_out = n - k + 1
    memory = {i: taps[i] for i in range(k)}
    memory.update({100 + i: signal[i] for i in range(n)})
    instructions = [
        lui(2, n_out),      # 0
        lui(4, k),          # 1
        addi(1, 0, 0),      # 2: i = 0
        beq(1, 2, 13),      # 3: if i == n_out goto 17
        addi(3, 0, 0),      # 4: j = 0
        addi(5, 0, 0),      # 5: acc = 0
        beq(3, 4, 7),       # 6: if j == k goto 14
        ld(6, 3, 0),        # 7: h[j]
        add(7, 1, 3),       # 8: i + j
        ld(8, 7, 100),      # 9: x[i+j]
        mul(9, 6, 8),       # 10
        add(5, 5, 9),       # 11
        addi(3, 3, 1),      # 12
        jmp(-8),            # 13: goto 6
        st(5, 1, 200),      # 14: y[i]
        addi(1, 1, 1),      # 15
        jmp(-14),           # 16: goto 3
        halt(),             # 17
    ]
    return Program("fir_filter", instructions, output_range=(200, n_out), initial_memory=memory)


def binary_search(n=16, seed=6):
    """Binary search in a sorted array at 0; target at 300, index at 400.

    Stores the found index, or the insertion point when absent.
    """
    rng = np.random.default_rng(seed)
    data = sorted(set(int(v) for v in rng.integers(1, 500, size=2 * n)))[:n]
    while len(data) < n:
        data.append(data[-1] + 1)
    target = int(data[rng.integers(n)]) if rng.random() < 0.7 else int(rng.integers(1, 500))
    memory = {i: data[i] for i in range(n)}
    memory[300] = target
    instructions = [
        addi(1, 0, 0),      # 0: lo = 0
        lui(2, n),          # 1: hi = n
        ld(3, 0, 300),      # 2: target
        beq(1, 2, 11),      # 3: if lo == hi goto 15
        add(4, 1, 2),       # 4
        addi(6, 0, 1),      # 5
        shr(4, 4, 6),       # 6: mid = (lo + hi) >> 1
        ld(5, 4, 0),        # 7: a[mid]
        beq(5, 3, 5),       # 8: found -> goto 14
        blt(5, 3, 2),       # 9: a[mid] < target -> goto 12
        add(2, 4, 0),       # 10: hi = mid
        jmp(-9),            # 11: goto 3
        addi(1, 4, 1),      # 12: lo = mid + 1
        jmp(-11),           # 13: goto 3
        add(1, 4, 0),       # 14: lo = mid (found)
        st(1, 0, 400),      # 15
        halt(),             # 16
    ]
    return Program("binary_search", instructions, output_range=(400, 1), initial_memory=memory)


def all_programs():
    """The default workload suite used by the studies and benches."""
    return [
        vector_add(),
        dot_product(),
        matmul(),
        bubble_sort(),
        fibonacci(),
        checksum(),
        fir_filter(),
        binary_search(),
    ]
