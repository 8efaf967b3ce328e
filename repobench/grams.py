"""The two Gram workloads: inputs, one repetition, correctness gates.

Every repetition is equally cold: it gets a fresh engine and fresh
``Graph`` objects (unpickled from one blob, which drops the fingerprint,
degree, edge-array and RCM memos the program keeps on graph objects).
Sizes are stratified — spread evenly over the range, then shuffled —
so the seed changes *which* graphs a run uses, not how much work it is.
"""

from __future__ import annotations

import pickle
import shutil
import time

import numpy as np

#: fragments, cold phase: 200 GDB-style fragments of 4-11 heavy atoms.
FRAG_N, FRAG_SIZES, FRAG_Q = 200, (4, 11), 0.05
#: fragments, sweep phase: a 4-point q refinement grid around q = 0.05
#: over 128 fragments of 3-8 atoms.
SWEEP_N, SWEEP_SIZES = 128, (3, 8)
SWEEP_QS = tuple(float(q) for q in np.geomspace(0.04, 0.05, 4))
#: Solver tolerance of the sweep: tight enough that a warm-started and
#: a cold trajectory agree within SWEEP_AGREE.
SWEEP_RTOL, SWEEP_AGREE = 1e-11, 1e-10
#: proteins_supervised: 12 protein-like contact graphs, 78 pairs.
PROT_SIZES = tuple(int(n) for n in np.round(np.linspace(56, 142, 12)))
PROT_WORKERS = 2
#: Entries of each repetition compared against a per-pair reference.
FRAG_SAMPLES, SWEEP_SAMPLES_PER_POINT, PROT_SAMPLES = 24, 3, 12
#: Agreement of the batched path with the per-pair fused value.
FRAG_RTOL = 1e-10


def _stratified(rng, n: int, lo: int, hi: int) -> np.ndarray:
    sizes = lo + (np.arange(n) * (hi - lo + 1)) // n
    rng.shuffle(sizes)
    return sizes


#: Draws allowed per fragment before giving up on a distinct one.
DISTINCT_TRIES = 1000


def fragments(seed, n: int, size_range: tuple[int, int]) -> list:
    """``n`` content-distinct fragments of stratified sizes.  Small
    fragments repeat often (3-atom ones have only a few hundred forms),
    and the engine solves each distinct pair once, so duplicates would
    let the seed change how much work a Gram is.  ``seed`` is anything
    ``np.random.default_rng`` takes."""
    from repro.engine.fingerprint import graph_fingerprint
    from repro.graphs.generators import drugbank_like_molecule

    rng = np.random.default_rng(seed)
    seen, out = set(), []
    for size in _stratified(rng, n, *size_range):
        for _ in range(DISTINCT_TRIES):
            g = drugbank_like_molecule(n_heavy=int(size), seed=rng)
            fp = graph_fingerprint(g)
            if fp not in seen:
                break
        else:
            raise RuntimeError(f"no distinct {size}-atom fragment in "
                               f"{DISTINCT_TRIES} draws")
        seen.add(fp)
        out.append(g)
    return out


def proteins(seed: int) -> list:
    from repro.graphs.pdb import protein_like_structure, structure_to_graph

    rng = np.random.default_rng(seed)
    return [
        structure_to_graph(
            protein_like_structure(n, seed=rng, name=f"prot-{k}"),
            cutoff=4.0, name=f"prot-{k}",
        )
        for k, n in enumerate(PROT_SIZES)
    ]


def _sample_positions(n: int, count: int) -> list[tuple[int, int]]:
    """``count`` upper-triangle positions spread evenly over the triangle
    (first and last included).  They do not depend on the seed, so the
    reference solves cost the same, and take the same memory, each run."""
    tri = [(i, j) for i in range(n) for j in range(i, n)]
    picks = np.linspace(0, len(tri) - 1, min(count, len(tri)))
    return [tri[int(k)] for k in np.round(picks)]


def _section2_failures(K: np.ndarray) -> list[str]:
    """The paper's Section II invariants on one Gram matrix."""
    from repro.kernels.marginalized import normalized

    out = []
    if not np.array_equal(K, K.T):
        out.append("not symmetric")
    Kn = normalized(K)
    if Kn.min() < 0.0 or Kn.max() > 1.0 + 1e-12:
        out.append(f"normalized values outside [0, 1]: "
                   f"[{Kn.min():.3g}, {Kn.max():.3g}]")
    lam = float(np.linalg.eigvalsh(Kn).min())
    if lam < -1e-8:
        out.append(f"not PSD: min eigenvalue {lam:.3g}")
    return out


class GramWorkload:
    """One Gram workload.  Subclasses define inputs and the repetition."""

    name = ""
    #: Gram entries (upper triangle with diagonal) one repetition resolves.
    pairs = 0
    #: Engine calls one repetition makes (each counted as an operation).
    calls = 1

    def __init__(self, seed: int, workdir=None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.blob = pickle.dumps(self.build())
        self.reference = None

    def build(self) -> list:
        raise NotImplementedError

    def fresh_graphs(self) -> list:
        return pickle.loads(self.blob)

    def run(self):
        """One timed repetition: returns (wall seconds, outputs)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """First-call costs (lazy imports, allocator growth) on a subset."""
        raise NotImplementedError

    def check(self, outputs) -> list[str]:
        """Failed gates of one repetition's outputs (empty = correct)."""
        raise NotImplementedError


class Fragments(GramWorkload):
    """A cold Gram of the default engine, then a short q sweep through
    shared caches.  The cold phase is most of a repetition; the sweep
    phase is what exercises the structure cache and warm starts."""

    name = "fragments"
    pairs = (FRAG_N * (FRAG_N + 1) // 2
             + len(SWEEP_QS) * SWEEP_N * (SWEEP_N + 1) // 2)
    calls = 1 + len(SWEEP_QS)

    def build(self):
        return (fragments(self.seed, FRAG_N, FRAG_SIZES),
                fragments((self.seed, 1), SWEEP_N, SWEEP_SIZES))

    @staticmethod
    def kernel(q, rtol=None, engine="fused_batched"):
        from repro import MarginalizedGraphKernel
        from repro.kernels.basekernels import molecule_kernels

        nk, ek = molecule_kernels()
        opts = {} if rtol is None else {"rtol": rtol}
        return MarginalizedGraphKernel(nk, ek, q=q, engine=engine, **opts)

    def cold(self, graphs):
        """A default ``GramEngine``: fused_batched, serial, a value cache
        that only misses."""
        from repro import GramEngine

        return GramEngine(self.kernel(FRAG_Q)).gram(graphs)

    def sweep(self, graphs, qs):
        """grid_search's configuration: one structure cache and one
        warm-start store shared by every point, RCM reordering on."""
        from repro import GramEngine
        from repro.engine.cache import StructureCache, WarmStartStore

        structure, warm = StructureCache(), WarmStartStore()
        return [
            GramEngine(self.kernel(q, SWEEP_RTOL), structure_cache=structure,
                       warm_start=warm, reorder=True).gram(graphs)
            for q in qs
        ]

    def warm_up(self):
        big, small = self.fresh_graphs()
        self.cold(big[:12])
        self.sweep(small[:12], SWEEP_QS[:2])

    def run(self):
        big, small = self.fresh_graphs()
        t0 = time.perf_counter()
        results = [self.cold(big)] + self.sweep(small, SWEEP_QS)
        return time.perf_counter() - t0, results

    def check(self, outputs):
        cold, points = outputs[0], outputs[1:]
        fails = _section2_failures(cold.matrix)
        if not cold.converged or cold.info["nonconverged_pairs"]:
            fails.append("nonconverged pairs")
        for q, res in zip(SWEEP_QS, points):
            if not res.converged:
                fails.append(f"q={q:.5g}: nonconverged pairs")
            if not np.array_equal(res.matrix, res.matrix.T):
                fails.append(f"q={q:.5g}: not symmetric")
        mats = [res.matrix for res in outputs]
        if self.reference is None:
            big, small = self.fresh_graphs()
            fails.extend(self._check_cold(cold.matrix, big))
            fails.extend(self._check_sweep(mats[1:], small))
            self.reference = mats
        elif not all(np.array_equal(a, b)
                     for a, b in zip(mats, self.reference)):
            fails.append("repetition differs from the first repetition")
        return fails

    def _check_cold(self, K, graphs):
        """Sampled entries against the per-pair fused value."""
        mgk = self.kernel(FRAG_Q, engine="fused")
        fails = []
        for i, j in _sample_positions(FRAG_N, FRAG_SAMPLES):
            ref = mgk.pair(graphs[i], graphs[j]).value
            if abs(K[i, j] - ref) > FRAG_RTOL * abs(ref):
                fails.append(f"K[{i},{j}]={K[i, j]!r} vs fused {ref!r}")
        return fails

    def _check_sweep(self, mats, graphs):
        """Sampled entries of every point against a cold per-pair solve
        at the sweep's solver tolerance."""
        per = SWEEP_SAMPLES_PER_POINT
        positions = _sample_positions(SWEEP_N, per * len(SWEEP_QS))
        fails = []
        for k, (q, K) in enumerate(zip(SWEEP_QS, mats)):
            cold = self.kernel(q, SWEEP_RTOL, engine="fused")
            for i, j in positions[k * per:(k + 1) * per]:
                ref = cold.pair(graphs[i], graphs[j]).value
                if abs(K[i, j] - ref) > SWEEP_AGREE * abs(ref):
                    fails.append(
                        f"q={q:.5g} K[{i},{j}]={K[i, j]!r} vs cold {ref!r}")
        return fails


class ProteinsSupervised(GramWorkload):
    name = "proteins_supervised"
    pairs = len(PROT_SIZES) * (len(PROT_SIZES) + 1) // 2
    #: Supervised Grams run so far (names each one's spill directory).
    _rep = 0

    def build(self):
        return proteins(self.seed)

    @staticmethod
    def kernel():
        from repro import MarginalizedGraphKernel
        from repro.kernels.basekernels import protein_kernels

        nk, ek = protein_kernels()
        return MarginalizedGraphKernel(nk, ek, q=0.05)

    def supervised_gram(self, graphs):
        """A supervised Gram over a fresh block-store spill directory."""
        from repro import GramEngine

        self._rep += 1
        spill = self.workdir / f"spill-{self._rep}"
        try:
            with GramEngine(self.kernel(), executor="process_supervised",
                            max_workers=PROT_WORKERS,
                            spill_dir=spill) as engine:
                t0 = time.perf_counter()
                res = engine.gram(graphs)
                wall = time.perf_counter() - t0
        finally:
            shutil.rmtree(spill, ignore_errors=True)
        return wall, res

    def warm_up(self):
        self.supervised_gram(self.fresh_graphs()[:2])

    def run(self):
        wall, res = self.supervised_gram(self.fresh_graphs())
        return wall, [res]

    def serial_reference(self):
        """The same Gram on the serial executor (the bitwise reference)."""
        from repro import GramEngine

        graphs = self.fresh_graphs()
        t0 = time.perf_counter()
        res = GramEngine(self.kernel()).gram(graphs)
        return time.perf_counter() - t0, res

    def check(self, outputs):
        res = outputs[0]
        diag = res.info["diagnostics"]
        fails = []
        if diag.quarantined_pairs or diag.pending_pairs:
            fails.append(f"quarantined {diag.quarantined_pairs}, "
                         f"pending {diag.pending_pairs}")
        if not res.converged:
            fails.append("nonconverged pairs")
        K = res.matrix
        if self.reference is None:
            # Every protein pair is a per-pair ("solo") solve, so the
            # serial reference of an entry is mgk.pair on that pair.
            graphs = self.fresh_graphs()
            mgk = self.kernel()
            for i, j in _sample_positions(len(graphs), PROT_SAMPLES):
                ref = mgk.pair(graphs[i], graphs[j]).value
                if K[i, j] != ref:
                    fails.append(f"K[{i},{j}]={K[i, j]!r} vs serial {ref!r}")
            self.reference = K
        elif not np.array_equal(K, self.reference):
            fails.append("repetition differs from the first repetition")
        return fails


WORKLOADS = {w.name: w for w in (Fragments, ProteinsSupervised)}
