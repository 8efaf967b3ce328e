"""Out-of-core Gram engine bench: memmap results and block-store reruns.

Two claims, checked against an in-RAM reference Gram of the same
workload:

1. **Out-of-core completion** — with a spill directory and an in-RAM
   result budget smaller than the Gram matrix, the run must complete
   with a memory-mapped result that is bitwise equal to the in-RAM
   one (``array_equal``, not allclose), persisting one block per tile.
2. **Rerun economics** — a rerun over the same spill directory must
   serve every block back, with zero numeric solves and a bitwise
   equal result (crash recovery recomputes only what is missing).

The committed baseline (``benchmarks/baselines/BENCH_spill.json``)
hard-gates the machine-independent ratios PR over PR: memmap result
bitwise identity and the rerun's served fraction.

Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_spill.py \
        --benchmark-only --json /tmp/bench
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

import numpy as np

from conftest import SCALE, banner, write_bench_json
from repro.engine import GramEngine
from repro.graphs.generators import random_labeled_graph
from repro.kernels.basekernels import synthetic_kernels
from repro.kernels.marginalized import MarginalizedGraphKernel

N_CORES = os.cpu_count() or 1

#: Pairs per tile: small enough that an n~60 Gram makes dozens of
#: tiles (so the block store holds many blocks), large enough that the
#: batched solver still amortizes its per-bucket constant.
BATCH_PAIRS = 24


def make_graphs(n: int, seed0: int = 4000) -> list:
    # Mixed sizes: several shape buckets per tile plan, plus solo
    # stragglers.
    return [
        random_labeled_graph(4 + (k % 5), density=0.55, weighted=True,
                             seed=seed0 + k)
        for k in range(n)
    ]


def make_engine(**kw):
    nk, ek = synthetic_kernels()
    mgk = MarginalizedGraphKernel(nk, ek, q=0.1, engine="fused_batched",
                                  solver="pcg")
    kw.setdefault("cache", False)
    kw.setdefault("batch_pairs", BATCH_PAIRS)
    return GramEngine(mgk, **kw)


def run_spill_bench():
    n = int(56 * max(1.0, SCALE) ** 0.5)
    graphs = make_graphs(n)
    pairs = n * (n + 1) // 2

    # Reference: the in-RAM Gram.
    t0 = time.perf_counter()
    barrier = make_engine().gram(graphs)
    barrier_t = time.perf_counter() - t0

    # Out-of-core: result budget far below the matrix size, so the Gram
    # must assemble in a memmap; then a rerun from the spilled blocks
    # alone.
    spill = tempfile.mkdtemp(prefix="bench-spill-")
    try:
        eng = make_engine(spill_dir=spill,
                          spill_bytes=max(1024, n * n))  # << n*n*8
        t0 = time.perf_counter()
        ooc = eng.gram(graphs)
        ooc_t = time.perf_counter() - t0
        ooc_diag = ooc.info["diagnostics"]
        eng.close()
        ooc_bitwise = bool(
            isinstance(ooc.matrix, np.memmap)
            and np.array_equal(barrier.matrix, np.asarray(ooc.matrix))
        )

        eng2 = make_engine(spill_dir=spill,
                           spill_bytes=max(1024, n * n))
        t0 = time.perf_counter()
        rerun = eng2.gram(graphs)
        rerun_t = time.perf_counter() - t0
        rerun_diag = rerun.info["diagnostics"]
        eng2.close()
        rerun_bitwise = bool(
            np.array_equal(barrier.matrix, np.asarray(rerun.matrix))
        )
    finally:
        shutil.rmtree(spill, ignore_errors=True)

    return {
        "n": n,
        "pairs": pairs,
        "tiles": barrier.info["diagnostics"].tiles,
        "n_cores": N_CORES,
        "barrier_t": barrier_t,
        "pairs_per_sec_barrier": pairs / barrier_t,
        "out_of_core": {
            "spill_bytes_budget": max(1024, n * n),
            "result_bytes": n * n * 8,
            "wall_t": ooc_t,
            "memmap_bitwise": float(ooc_bitwise),
            "blocks_written": ooc_diag.blocks_written,
        },
        "rerun": {
            "wall_t": rerun_t,
            "solves": rerun_diag.solves,
            "blocks_served": rerun_diag.blocks_served,
            "served_fraction": (
                rerun_diag.blocks_served / ooc_diag.blocks_written
                if ooc_diag.blocks_written else 0.0
            ),
            "bitwise": float(rerun_bitwise),
        },
    }


def test_spill_out_of_core(benchmark, request):
    r = benchmark.pedantic(run_spill_bench, rounds=1, iterations=1)
    banner("Out-of-core Gram engine — memmap results and block reruns")
    print(f"{r['n']} graphs, {r['pairs']} pairs, {r['tiles']} tiles "
          f"({r['n_cores']} cores)")
    print(f"in-RAM reference: {r['barrier_t']:.2f}s "
          f"({r['pairs_per_sec_barrier']:.0f} pairs/s)")
    ooc, rr = r["out_of_core"], r["rerun"]
    print(f"out-of-core: {ooc['result_bytes']} B result under "
          f"{ooc['spill_bytes_budget']} B budget -> memmap in "
          f"{ooc['wall_t']:.2f}s, {ooc['blocks_written']} blocks")
    print(f"rerun from blocks: {rr['blocks_served']} served, "
          f"{rr['solves']} solves, {rr['wall_t']:.2f}s")

    assert ooc["memmap_bitwise"] == 1.0
    assert rr["bitwise"] == 1.0
    assert rr["solves"] == 0, "rerun should be served entirely from blocks"
    assert rr["served_fraction"] == 1.0

    write_bench_json(request, "spill", r)
