"""Outside-in per-layer ledger: wrap the program's functions, keep self time.

Nothing in ``src/`` is edited.  :class:`Ledger` replaces a function or
method by a timing wrapper — on the owning module or class *and* on
every ``repro`` module that imported the same object by name — and
restores the originals on :meth:`Ledger.restore`.  Each thread keeps a
stack of active wrapped calls, so a layer's *self* time is its calls'
wall time minus the time spent in nested wrapped calls, and the self
times of all layers on one thread add up to the wrapped part of that
thread's wall time.  What is left of a repetition's wall time is the
``unattributed`` row.

Counts (calls, iterations, computed flops and bytes) are recorded at
the same boundaries by ``on_result`` hooks.

:func:`install_gram_layers` is the function-to-layer map of the Gram
path; README.md lists it as a table.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

_perf = time.perf_counter


class Ledger:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        #: Self time on the thread that created the ledger (the thread
        #: whose wall time the unattributed row is measured against).
        self.main_self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    # -- bookkeeping ---------------------------------------------------

    def _stack(self) -> list:
        """This thread's active wrapped calls as [layer, child seconds]."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def caller_layer(self) -> str | None:
        """Layer of the wrapped call that made the current one."""
        stack = self._stack()
        return stack[-2][0] if len(stack) > 1 else None

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def _record(self, layer: str, dt: float, child: float) -> None:
        own = dt - child
        with self._lock:
            self.self_s[layer] += own
            if threading.get_ident() == self._main:
                self.main_self_s[layer] += own

    def reset(self) -> None:
        with self._lock:
            self.self_s.clear()
            self.main_self_s.clear()
            self.counts.clear()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "main_self_s": dict(self.main_self_s),
                "counts": dict(self.counts),
            }

    # -- wrapping ------------------------------------------------------

    def timed(self, fn, layer: str, on_result=None, on_time=None):
        """``on_result(ledger, args, kwargs, result)`` records counts;
        ``on_time(dt, args, kwargs)`` receives each call's wall time."""
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = ledger._stack()
            stack.append([layer, 0.0])
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(ledger, args, kwargs, result)
                return result
            finally:
                dt = _perf() - t0
                child = stack.pop()[1]
                if stack:
                    stack[-1][1] += dt
                ledger._record(layer, dt, child)
                if on_time is not None:
                    on_time(dt, args, kwargs)

        return wrapper

    def _timed_generator(self, fn, layer: str):
        """Time spent *inside* a generator, summed over its resumptions."""
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    stack = ledger._stack()
                    stack.append([layer, 0.0])
                    t0 = _perf()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = _perf() - t0
                        child = stack.pop()[1]
                        if stack:
                            stack[-1][1] += dt
                        ledger._record(layer, dt, child)
                    yield item
            finally:
                gen.close()

        return wrapper

    def swap(self, owner, attr: str, new) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, module_name: str, attr: str, layer: str,
                      on_result=None, on_time=None) -> None:
        """Wrap a module-level function everywhere ``repro`` imported it."""
        module = sys.modules[module_name]
        orig = getattr(module, attr)
        if inspect.isgeneratorfunction(orig):
            wrapped = self._timed_generator(orig, layer)
        else:
            wrapped = self.timed(orig, layer, on_result, on_time)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                mod is not None and mod.__dict__.get(attr) is orig
            ):
                self.swap(mod, attr, wrapped)

    def wrap_method(self, cls, attr: str, layer: str,
                    on_result=None, on_time=None) -> None:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, staticmethod):
            fn = raw.__func__
            wrapped = staticmethod(
                self.timed(fn, layer, on_result, on_time))
        elif inspect.isgeneratorfunction(raw):
            wrapped = self._timed_generator(raw, layer)
        else:
            wrapped = self.timed(raw, layer, on_result, on_time)
        self.swap(cls, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


# ----------------------------------------------------------------------
# count hooks (computed, not measured: see README "XMV counts")
# ----------------------------------------------------------------------


def _count_call(name):
    def hook(ledger, args, kwargs, result):
        ledger.add(name)
    return hook


def _count_hits(layer, calls, hits):
    """Lookups and hits of a cache, counted once per outermost lookup
    (a tiered cache's inner tiers are the same layer)."""
    def hook(ledger, args, kwargs, result):
        if ledger.caller_layer() == layer:
            return
        ledger.add(calls)
        if result is not None:
            ledger.add(hits)
    return hook


def _on_batched_solve(ledger, args, kwargs, result):
    ledger.add("solvers.iterations", int(result.iterations.sum()))


def _on_matvec(ledger, args, kwargs, result):
    """Flops and bytes of one stacked off-diagonal product W·p.

    Dense stacks read the whole (B, N, N) W; block-CSR reads the values,
    column indices and row pointers.  Both read p and write the result.
    """
    system, p = args[0], args[1]
    op = system.offdiag
    vec_bytes = 2 * p.nbytes
    W = getattr(op, "W", None)
    if W is not None:
        flops = 2 * W.size
        nbytes = W.nbytes + vec_bytes
    else:
        mat = op.mat
        flops = 2 * mat.nnz
        nbytes = (mat.data.nbytes + mat.indices.nbytes
                  + mat.indptr.nbytes + vec_bytes)
    ledger.add("solvers.matvec_calls")
    ledger.add("xmv.flops", flops)
    ledger.add("xmv.bytes", nbytes)


def _on_seed(ledger, args, kwargs, result):
    ledger.add("engine.warm_seed_calls")
    if result[0] is not None:
        ledger.add("engine.warm_seeded")


def _on_solo_pairs(ledger, args, kwargs, result):
    ledger.add("solvers.solo_pairs", len(result))


def _on_solo_solve(ledger, args, kwargs, result):
    ledger.add("solvers.solo_iterations", int(result.iterations))


def _on_block_put(ledger, args, kwargs, result):
    ledger.add("block_store.blocks")
    ledger.add("block_store.bytes", int(result))


def install_gram_layers(ledger: Ledger) -> None:
    """Wrap every layer of the Gram path (the function-to-layer map)."""
    import repro.engine.core as core
    from repro.engine.block_store import GramBlockStore
    from repro.engine.cache import (DiskCache, LRUCache, StructureCache,
                                    TieredCache, WarmStartStore)
    from repro.engine.supervisor import SupervisedPool
    from repro.kernels.linsys import BatchedProductSystem
    from repro.kernels.marginalized import MarginalizedGraphKernel

    fp = "repro.engine.fingerprint"
    ledger.wrap_function(fp, "graph_fingerprint", "engine.fingerprint",
                         _count_call("engine.fingerprint_calls"))
    ledger.wrap_function(fp, "kernel_fingerprint", "engine.fingerprint")
    # value cache: key derivation plus every tier's lookups and stores
    ledger.wrap_function(fp, "pair_key", "engine.value_cache")
    for cls in (LRUCache, DiskCache, TieredCache):
        ledger.wrap_method(cls, "get", "engine.value_cache", _count_hits(
            "engine.value_cache", "engine.value_cache_lookups",
            "engine.value_cache_hits"))
        ledger.wrap_method(cls, "put", "engine.value_cache")
    # structure cache, tile-plan cache keys, warm-start store
    ledger.wrap_method(StructureCache, "get", "engine.structure_cache",
                       _count_hits("engine.structure_cache",
                                   "engine.structure_lookups",
                                   "engine.structure_hits"))
    ledger.wrap_method(StructureCache, "put", "engine.structure_cache")
    ledger.wrap_method(core.GramEngine, "_tiles_key",
                       "engine.structure_cache")
    ledger.wrap_function("repro.engine.executors", "structure_key",
                         "engine.structure_cache")
    ledger.wrap_method(WarmStartStore, "get", "engine.structure_cache")
    ledger.wrap_method(WarmStartStore, "put", "engine.structure_cache")
    ledger.wrap_function("repro.engine.executors", "_seed_warm_start",
                         "engine.warm_start", _on_seed)
    # tile planning (cost model + bucketed / classic planners)
    for name in ("build_pair_jobs", "plan_bucketed_tiles", "plan_tiles"):
        ledger.wrap_function("repro.engine.tiles", name, "engine.tiles")
    # batched assembly and solve
    ledger.wrap_function("repro.kernels.linsys", "build_structure_plan",
                         "linsys.structure_plan",
                         _count_call("linsys.structure_plan_calls"))
    ledger.wrap_function("repro.kernels.linsys", "fill_batched_system",
                         "linsys.fill")
    for name in ("batched_pcg_solve", "batched_cg_solve"):
        ledger.wrap_function("repro.solvers.batched_pcg", name,
                             "solvers.batched_pcg", _on_batched_solve)
    ledger.wrap_method(BatchedProductSystem, "matvec_offdiag",
                       "solvers.matvec", _on_matvec)
    # per-pair ("solo") path
    ledger.wrap_function("repro.engine.executors", "solve_pairs",
                         "engine.executors", _on_solo_pairs)
    ledger.wrap_method(MarginalizedGraphKernel, "build_system",
                       "linsys.build_system")
    ledger.wrap_method(MarginalizedGraphKernel, "_solve", "solvers.solo",
                       _on_solo_solve)
    # executor dispatch (bucketing, result packing) and the supervisor
    for name in ("run_tiles", "solve_pairs_batched", "bucket_tasks"):
        ledger.wrap_function("repro.engine.executors", name,
                             "engine.executors")
    ledger.wrap_method(SupervisedPool, "run", "engine.supervisor")
    ledger.wrap_method(GramBlockStore, "put", "engine.block_store",
                       _on_block_put)
    ledger.wrap_method(GramBlockStore, "get", "engine.block_store")
    # engine core: dedup, result assembly, diagnostics (self time)
    for name in ("gram", "block", "pairs", "diag", "_compute_pairs"):
        ledger.wrap_method(core.GramEngine, name, "engine.core")
    ledger.wrap_function("repro.engine.core", "_scatter_entries",
                         "engine.core")


#: Ledger layers and the per-layer metric that reports their self time.
LAYER_TIME_METRICS = {
    "engine.fingerprint": "engine.fingerprint_s",
    "engine.value_cache": "engine.value_cache_s",
    "engine.structure_cache": "engine.structure_cache_s",
    "engine.warm_start": "engine.warm_start_s",
    "engine.tiles": "engine.plan_tiles_s",
    "linsys.structure_plan": "linsys.structure_plan_s",
    "linsys.fill": "linsys.fill_s",
    "solvers.batched_pcg": "solvers.bookkeeping_s",
    "solvers.matvec": "solvers.matvec_s",
    "linsys.build_system": "linsys.build_system_s",
    "solvers.solo": "solvers.solo_s",
    "engine.executors": "engine.executors_s",
    "engine.supervisor": "supervisor.run_s",
    "engine.block_store": "block_store.put_s",
    "engine.core": "engine.core_self_s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def gram_layer_metrics(self_s: dict, counts: dict) -> dict:
    """Per-layer metric values from one repetition's ledger deltas."""
    out = {metric: self_s.get(layer, 0.0)
           for layer, metric in LAYER_TIME_METRICS.items()}
    out["solvers.batched_solve_s"] = (
        self_s.get("solvers.batched_pcg", 0.0)
        + self_s.get("solvers.matvec", 0.0)
    )
    c = counts.get
    out["engine.fingerprint_calls"] = c("engine.fingerprint_calls", 0)
    out["engine.value_cache_hit_ratio"] = _ratio(
        c("engine.value_cache_hits", 0), c("engine.value_cache_lookups", 0))
    out["engine.structure_hit_ratio"] = _ratio(
        c("engine.structure_hits", 0), c("engine.structure_lookups", 0))
    out["engine.warm_seeded_ratio"] = _ratio(
        c("engine.warm_seeded", 0), c("engine.warm_seed_calls", 0))
    out["linsys.structure_plan_calls"] = c("linsys.structure_plan_calls", 0)
    out["solvers.matvec_calls"] = c("solvers.matvec_calls", 0)
    out["solvers.iterations"] = c("solvers.iterations", 0)
    out["solvers.solo_pairs"] = c("solvers.solo_pairs", 0)
    out["solvers.solo_iterations"] = c("solvers.solo_iterations", 0)
    out["xmv.flops"] = c("xmv.flops", 0)
    out["xmv.bytes"] = c("xmv.bytes", 0)
    out["xmv.flops_per_byte"] = _ratio(c("xmv.flops", 0), c("xmv.bytes", 0))
    out["block_store.blocks"] = c("block_store.blocks", 0)
    out["block_store.bytes"] = c("block_store.bytes", 0)
    return out


#: Counts that must repeat exactly between two traced runs of one seed
#: (checked by repeat_counts.py; the README records the outcome).
EXACT_COUNTS = (
    "solvers.iterations", "solvers.matvec_calls",
    "linsys.structure_plan_calls", "xmv.flops", "xmv.bytes",
    "block_store.blocks",
)


#: Every per-layer metric: unit and which direction is better.  A
#: traced run of any workload reports all of them; a layer the workload
#: does not exercise reads 0 (README "Which layer moves which metric").
PER_LAYER = {
    "engine.fingerprint_s": ("s", "lower"),
    "engine.fingerprint_calls": ("count", "lower"),
    "engine.value_cache_s": ("s", "lower"),
    "engine.value_cache_hit_ratio": ("ratio", "higher"),
    "engine.structure_cache_s": ("s", "lower"),
    "engine.structure_hit_ratio": ("ratio", "higher"),
    "engine.warm_start_s": ("s", "lower"),
    "engine.warm_seeded_ratio": ("ratio", "higher"),
    "engine.plan_tiles_s": ("s", "lower"),
    "linsys.structure_plan_s": ("s", "lower"),
    "linsys.structure_plan_calls": ("count", "lower"),
    "linsys.fill_s": ("s", "lower"),
    "solvers.batched_solve_s": ("s", "lower"),
    "solvers.matvec_s": ("s", "lower"),
    "solvers.matvec_calls": ("count", "lower"),
    "solvers.bookkeeping_s": ("s", "lower"),
    "solvers.iterations": ("count", "lower"),
    "xmv.flops": ("flop", "lower"),
    "xmv.bytes": ("B", "lower"),
    "xmv.flops_per_byte": ("flop/B", "higher"),
    "linsys.build_system_s": ("s", "lower"),
    "solvers.solo_s": ("s", "lower"),
    "solvers.solo_pairs": ("count", "lower"),
    "solvers.solo_iterations": ("count", "lower"),
    "engine.executors_s": ("s", "lower"),
    "engine.core_self_s": ("s", "lower"),
    "supervisor.run_s": ("s", "lower"),
    "supervisor.parallel_efficiency": ("ratio", "higher"),
    "supervisor.retries": ("count", "lower"),
    "supervisor.respawns": ("count", "lower"),
    "block_store.put_s": ("s", "lower"),
    "block_store.blocks": ("count", "lower"),
    "block_store.bytes": ("B", "lower"),
    "serve.codec_ms": ("ms", "lower"),
    "serve.batch_wait_ms": ("ms", "lower"),
    "serve.batch_size_mean": ("requests", "higher"),
    "serve.rejected": ("count", "lower"),
    "serve.engine_ms": ("ms", "lower"),
    "serve.search_ms": ("ms", "lower"),
    "serve.server_p50_ms": ("ms", "lower"),
    "serve.transport_ms": ("ms", "lower"),
    "unattributed_s": ("s", "lower"),
    "unattributed_share": ("ratio", "lower"),
    "trace_overhead_share": ("ratio", "lower"),
}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}
