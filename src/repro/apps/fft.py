"""Parallel 1-D FFT: the paper's regular-global example application.

Section 6: "We have also tested the PEVPM using ... a Fast Fourier
Transform as an example of a program with regular and global
communication."  This module implements the classic *transpose* (four-step
Cooley-Tukey) parallel FFT:

with N = P * M points cyclically distributed (rank p holds ``x[p::P]``):

1. each rank computes a local FFT of length M over its slice;
2. each rank multiplies by the twiddle factors ``exp(-2*pi*i*p*k2/N)``;
3. an all-to-all transpose redistributes columns: rank p ends up with the
   k2 block ``[p*M/P, (p+1)*M/P)`` of all P partial results;
4. each rank computes P-point FFTs down its columns, yielding the output
   entries ``X[M*k1 + k2]`` for its k2 block.

The :func:`fft_smpi` program really performs the arithmetic (NumPy) and
moves the blocks through the simulated MPI alltoall, so correctness is
testable against ``numpy.fft.fft``; :func:`fft_model` is the matching
PEVPM model with the same serial-time constants and the same P-1-round
pairwise exchange structure as the runtime's alltoall.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..pevpm import patterns
from ..pevpm.machine import ProcContext

__all__ = [
    "FFT_POINT_TIME",
    "fft_serial_time",
    "fft_local_work",
    "fft_smpi",
    "fft_model",
    "distribute_input",
    "gather_output",
]

#: Empirical per-point, per-FFT-level compute cost on the modelled 500 MHz
#: PIII (seconds) -- the FFT analogue of Jacobi's measured 3.24 constant.
FFT_POINT_TIME = 60e-9

COMPLEX_BYTES = 16  #: one complex128 on the wire


def _require_pow2(value: int, what: str) -> None:
    if value < 1 or value & (value - 1):
        raise ValueError(f"{what} must be a power of two, got {value}")


def fft_local_work(n: int, length: int) -> float:
    """Model of local FFT cost: ``FFT_POINT_TIME * n * log2(length)`` for
    *n* points transformed in FFTs of the given *length*."""
    if n < 1 or length < 1:
        raise ValueError("n and length must be >= 1")
    levels = max(1.0, np.log2(length))
    return FFT_POINT_TIME * n * levels


def fft_serial_time(n_points: int) -> float:
    """One-processor FFT time for the speedup baseline."""
    return fft_local_work(n_points, n_points)


def distribute_input(x: np.ndarray, nprocs: int) -> list[np.ndarray]:
    """Cyclic distribution: rank p gets ``x[p::nprocs]``."""
    return [np.asarray(x[p::nprocs], dtype=complex) for p in range(nprocs)]


def gather_output(chunks: list[np.ndarray]) -> np.ndarray:
    """Reassemble rank outputs (k2-blocks of X in k = M*k1 + k2 order)."""
    P = len(chunks)
    # chunks[p] is an array of shape (block, P): X[M*k1 + k2] for k2 in
    # rank p's block, k1 in [0, P).  Flatten back to natural k order.
    N = sum(c.size for c in chunks)
    M = N // P
    block = M // P
    X = np.empty(N, dtype=complex)
    for p, chunk in enumerate(chunks):
        cols = chunk.reshape(block, P)  # [k2 - p*block, k1]
        for j in range(block):
            k2 = p * block + j
            for k1 in range(P):
                X[M * k1 + k2] = cols[j, k1]
    return X


def fft_smpi(comm, x_chunk: np.ndarray, n_points: int):
    """Rank program: transform this rank's cyclic slice of the input.

    Returns this rank's output block (shape ``(M/P, P)`` flattened), plus
    the completion time.  Compute phases are charged to the virtual CPU
    with :func:`fft_local_work`; the transpose goes through the simulated
    alltoall.
    """
    P = comm.size
    p = comm.rank
    _require_pow2(P, "process count")
    _require_pow2(n_points, "n_points")
    if n_points % (P * P):
        raise ValueError("n_points must be divisible by P^2 for the transpose")
    M = n_points // P
    block = M // P

    data = np.asarray(x_chunk, dtype=complex)
    if data.shape != (M,):
        raise ValueError(f"rank {p} expected {M} points, got {data.shape}")

    # Step 1: local FFT of length M over the cyclic slice.
    yield from comm.compute(fft_local_work(M, M))
    f1 = np.fft.fft(data)

    # Step 2: twiddle factors exp(-2 pi i p k2 / N).
    yield from comm.compute(FFT_POINT_TIME * M)
    k2 = np.arange(M)
    g = f1 * np.exp(-2j * np.pi * p * k2 / n_points)

    # Step 3: all-to-all transpose.  Rank q gets our values for its k2
    # block [q*block, (q+1)*block).
    payloads = [g[q * block : (q + 1) * block] for q in range(P)]
    received = yield from comm.alltoall(block * COMPLEX_BYTES, payloads=payloads)

    # Step 4: P-point FFTs down the columns of our k2 block.
    yield from comm.compute(fft_local_work(block * P, P))
    matrix = np.vstack(received)  # [n1, j] -- contribution of rank n1
    out = np.fft.fft(matrix, axis=0)  # over n1 -> k1
    # out[k1, j] = X[M*k1 + (p*block + j)]
    result = out.T.reshape(-1)  # [j, k1] flattened
    return result, comm.true_time()


def fft_model(n_points: int):
    """PEVPM model factory mirroring :func:`fft_smpi`'s time structure.

    Returns a program callable for
    :class:`~repro.pevpm.machine.VirtualMachine` /
    :func:`~repro.pevpm.predict.predict`.  It pickles (a module-level
    generator bound with :func:`functools.partial`), so the prediction
    cache and the compile cache can key it.
    """
    _require_pow2(n_points, "n_points")
    return partial(_fft_program, n_points)


def _fft_program(n_points: int, ctx: ProcContext):
    P = ctx.numprocs
    if n_points % (P * P):
        raise ValueError("n_points must be divisible by P^2")
    M = n_points // P
    block = M // P
    size = block * COMPLEX_BYTES

    yield ctx.serial(fft_local_work(M, M), label="fft-step1")
    yield ctx.serial(FFT_POINT_TIME * M, label="twiddle")
    # The transpose: the runtime's alltoall.
    yield from patterns.alltoall(ctx, size)
    yield ctx.serial(fft_local_work(block * P, P), label="fft-step4")
