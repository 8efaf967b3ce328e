"""serve_predict: ``repro serve --index`` under a closed loop of 2 clients.

A GPR model and a similarity index are fitted on small synthetic-kernel
graphs and saved to a registry inside the checkout.  The untraced run
starts ``python3 -m repro.cli serve`` (default flags plus ``--index``)
as a child process; the traced run hosts the same ``KernelServer`` in
this process through ``ServerThread`` so the ledger's wrappers see it.

Load: 2 client threads, each with one keep-alive connection, each
sending its next request when the previous reply arrives (callers of
``ServeClient`` wait for every reply).  80% of requests are ``/predict``
over 8 unique 6-node graphs, 20% are ``/topk`` (k = 3) for one graph.
Request bodies are encoded before timing starts.
"""

from __future__ import annotations

import contextvars
import http.client
import json
import subprocess
import sys
import threading
import time
from typing import NamedTuple

import numpy as np

import common

N_TRAIN, TRAIN_NODES = 40, (6, 10)
N_PREDICT_GRAPHS, QUERY_NODES = 8, 6
PREDICT_SHARE, TOPK_K, N_LANDMARKS = 0.8, 3, 16
N_CLIENTS = 2
MEAN_ATOL = 1e-10


class Record(NamedTuple):
    """One request as the client saw it."""

    kind: str  # "predict" or "topk"
    which: int  # index of the predict graph (-1 for top-k)
    latency: float  # seconds, send to full reply
    status: int
    body: bytes
    rid: str  # X-Request-Id the client sent


class Row(NamedTuple):
    """One traced request split into its parts (seconds)."""

    kind: str
    latency: float
    route: float
    submit: float
    batch: float
    codec: float


# ----------------------------------------------------------------------
# inputs and the offline reference
# ----------------------------------------------------------------------


def _graphs(rng, n: int, sizes: tuple[int, int]) -> list:
    from repro.graphs.generators import random_labeled_graph

    lo, hi = sizes
    return [
        random_labeled_graph(lo + k % (hi - lo + 1), density=0.4, seed=rng)
        for k in range(n)
    ]


class Fixture:
    """Registry, request bodies and expected answers for one seed."""

    def __init__(self, seed: int, root) -> None:
        from repro import GramEngine, MarginalizedGraphKernel
        from repro.kernels.basekernels import synthetic_kernels
        from repro.ml import GaussianProcessRegressor
        from repro.search import index_from_graphs
        from repro.serve import ModelRegistry
        from repro.serve.protocol import graph_to_wire

        rng = np.random.default_rng(seed)
        train = _graphs(rng, N_TRAIN, TRAIN_NODES)
        y = np.array([float(g.degrees.mean()) for g in train])
        queries = _graphs(rng, N_PREDICT_GRAPHS + 1,
                          (QUERY_NODES, QUERY_NODES))
        nk, ek = synthetic_kernels()
        mgk = MarginalizedGraphKernel(nk, ek, q=0.05)
        engine = GramEngine(mgk)
        gpr = GaussianProcessRegressor(engine=engine).fit_graphs(train, y)
        index = index_from_graphs(train, engine, n_landmarks=N_LANDMARKS,
                                  seed=seed)
        self.registry = root / "registry"
        reg = ModelRegistry(self.registry)
        reg.save("m", gpr, mgk, train, scheme="synthetic")
        reg.save_index("idx", index, mgk, scheme="synthetic")

        self.predict_graphs = queries[:N_PREDICT_GRAPHS]
        self.topk_graph = queries[-1]
        self.predict_bodies = [
            json.dumps({"graphs": [graph_to_wire(g)]}).encode()
            for g in self.predict_graphs
        ]
        self.topk_body = json.dumps(
            {"graphs": [graph_to_wire(self.topk_graph)], "k": TOPK_K}
        ).encode()
        self.expected_means, self.expected_topk = self._offline()

    def _offline(self):
        """Answers of the saved model and index, loaded offline."""
        from repro import GramEngine
        from repro.serve import ModelRegistry

        reg = ModelRegistry(self.registry)
        model = reg.load("m")
        model.gpr.engine = GramEngine(model.kernel)
        means = model.gpr.predict_graphs(self.predict_graphs)
        loaded = reg.load_index("idx")
        loaded.index.feature_map.engine = model.gpr.engine
        hits = loaded.index.query([self.topk_graph], k=TOPK_K)[0]
        return [float(m) for m in means], [h["id"] for h in hits]

    def check(self, records) -> list[str]:
        """Gates over every response: 200, means, top-k ids."""
        fails = []
        for r in records:
            if r.status != 200:
                fails.append(f"{r.kind}: HTTP {r.status}")
                continue
            obj = json.loads(r.body)
            if r.kind == "predict":
                got = obj["mean"][0]
                want = self.expected_means[r.which]
                if abs(got - want) > MEAN_ATOL:
                    fails.append(f"predict[{r.which}] {got!r} vs {want!r}")
            else:
                ids = [hit["id"] for hit in obj["results"][0]]
                if ids != self.expected_topk:
                    fails.append(f"topk ids {ids} vs {self.expected_topk}")
        return fails


# ----------------------------------------------------------------------
# the closed-loop load generator
# ----------------------------------------------------------------------


def _client(port, fixture, seed, client_id, stop_at, records, lock):
    rng = np.random.default_rng([seed, client_id])
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    mine = []
    n = 0
    try:
        while time.perf_counter() < stop_at:
            if rng.random() < PREDICT_SHARE:
                which = int(rng.integers(N_PREDICT_GRAPHS))
                kind, path = "predict", "/predict"
                body = fixture.predict_bodies[which]
            else:
                which, kind, path = -1, "topk", "/topk"
                body = fixture.topk_body
            rid = f"c{client_id}-{n}"
            n += 1
            headers = {"Content-Type": "application/json",
                       "X-Request-Id": rid}
            t0 = time.perf_counter()
            conn.request("POST", path, body=body, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
            mine.append(Record(kind, which, time.perf_counter() - t0,
                               resp.status, raw, rid))
    finally:
        conn.close()
        with lock:
            records.extend(mine)


def closed_loop(port: int, fixture: Fixture, seed: int, seconds: float):
    """Run the load for ``seconds``; returns (records, wall)."""
    records: list = []
    lock = threading.Lock()
    t0 = time.perf_counter()
    stop_at = t0 + seconds
    threads = [
        threading.Thread(target=_client, args=(
            port, fixture, seed, c, stop_at, records, lock))
        for c in range(N_CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 120)
        if t.is_alive():
            raise RuntimeError("a load client did not finish")
    return records, time.perf_counter() - t0


def warm(port: int, fixture: Fixture) -> None:
    """One request per unique body: fills the engine's value cache."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for path, body in ([("/predict", b) for b in fixture.predict_bodies]
                           + [("/topk", fixture.topk_body)]):
            conn.request("POST", path, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            resp.read()
            if resp.status != 200:
                raise RuntimeError(f"warm-up {path}: HTTP {resp.status}")
    finally:
        conn.close()


# ----------------------------------------------------------------------
# untraced run: the CLI server as a child process
# ----------------------------------------------------------------------


class ServerProcess:
    """``repro serve`` with default flags plus ``--index``."""

    def __init__(self, registry) -> None:
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--registry", str(registry), "--name", "m",
               "--index", "idx", "--port", "0"]
        self.proc = subprocess.Popen(
            cmd, cwd=common.ROOT, env=common.program_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if "http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split("http://", 1)[1].split()[0]
                            .rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self):
        return common.proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        self.proc.stdout.close()


def _start_and_warm(fixture):
    """A fresh server process up to its first answers; returns (server,
    set-up seconds)."""
    t0 = time.perf_counter()
    server = ServerProcess(fixture.registry)
    try:
        warm(server.port, fixture)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def _latency_detail(records) -> dict:
    """Client-observed latency figures of the closed loop (ms)."""
    ok = [r for r in records if r.status == 200]
    pred = [r.latency * 1e3 for r in ok if r.kind == "predict"]
    topk = [r.latency * 1e3 for r in ok if r.kind == "topk"]
    p95 = common.percentile(pred, 95)
    return {
        "predict_p50_ms": common.median(pred),
        "predict_p95_ms": p95,
        "topk_p50_ms": common.median(topk),
        "predict_samples": len(pred), "topk_samples": len(topk),
        "predict_samples_beyond_p95": sum(1 for x in pred if x > p95),
    }


def untraced(args, steal) -> None:
    work = common.workdir("serve")
    server = None
    try:
        fixture = Fixture(args.seed, work)
        setups = []
        for k in range(common.SETUP_PROBES):
            server, dt = _start_and_warm(fixture)
            setups.append(dt)
            if k < common.SETUP_PROBES - 1:
                server.stop()
                server = None
        records, wall = closed_loop(server.port, fixture, args.seed,
                                    args.seconds)
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
        common.clean_workdir(work)
    fails = fixture.check(records)
    lat = _latency_detail(records)
    n_ok = sum(1 for r in records if r.status == 200)
    metrics = common.end_to_end(setups, rss, n_ok / wall,
                                lat["predict_p50_ms"] / 1e3)
    detail = {
        "workload": "serve_predict", "seed": args.seed, **lat,
        "setup_samples_s": setups, "wall_s": wall, "clients": N_CLIENTS,
        "failed_gates": fails[:20],
    }
    common.emit(common.run_metadata(steal), detail, not fails,
                len(records), len(fails), metrics)


# ----------------------------------------------------------------------
# traced run: the same server in-process, wrapped from outside
# ----------------------------------------------------------------------

#: Request id of the route coroutine running on the event loop.
_RID: contextvars.ContextVar = contextvars.ContextVar("rid", default=None)


class _Requests:
    """Per-request and per-batch timings gathered by the serve wrappers."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.route: dict = {}
        self.submit: dict = {}
        self.batch: dict = {}
        self.codec: dict = {}
        self.batch_sizes: list[int] = []
        self.engine_s: list[float] = []
        self.search_s: list[float] = []

    def add_codec(self, dt, args, kwargs) -> None:
        rid = _RID.get()
        if rid is not None:
            with self.lock:
                self.codec[rid] = self.codec.get(rid, 0.0) + dt


def _install_serve_layers(ledger, reqs: _Requests, server) -> None:
    import repro.serve.server as server_mod
    from repro.ml.gpr import GaussianProcessRegressor
    from repro.search.features import NystromFeatureMap
    from repro.search.index import FeatureIndex
    from repro.serve.batcher import MicroBatcher
    from repro.serve.server import KernelServer

    route = KernelServer._route

    async def timed_route(self, method, path, body, headers=None,
                          request_id=None):
        token = _RID.set(request_id)
        t0 = time.perf_counter()
        try:
            return await route(self, method, path, body, headers,
                               request_id)
        finally:
            dt = time.perf_counter() - t0
            _RID.reset(token)
            with reqs.lock:
                reqs.route[request_id] = dt

    submit = MicroBatcher.submit

    async def timed_submit(self, graphs, return_std=False, **meta):
        t0 = time.perf_counter()
        try:
            return await submit(self, graphs, return_std, **meta)
        finally:
            with reqs.lock:
                reqs.submit[meta.get("request_id")] = (
                    time.perf_counter() - t0)

    ledger.swap(KernelServer, "_route", timed_route)
    ledger.swap(MicroBatcher, "submit", timed_submit)

    def on_batch(kind):
        def hook(dt, args, kwargs):
            items = args[0]
            with reqs.lock:
                for item in items:
                    reqs.batch[item.meta.get("request_id")] = dt
                if kind == "predict":
                    reqs.batch_sizes.append(len(items))
                else:
                    reqs.search_s.append(dt)
        return hook

    # the batchers hold their batch bodies as bound methods
    for batcher, kind in ((server.batcher, "predict"),
                          (server.topk_batcher, "topk")):
        ledger.swap(batcher, "run_batch", ledger.timed(
            batcher.run_batch, "serve.batcher", on_time=on_batch(kind)))

    def on_engine(dt, args, kwargs):
        with reqs.lock:
            reqs.engine_s.append(dt)

    ledger.wrap_method(GaussianProcessRegressor, "predict_graphs", "ml.gpr",
                       on_time=on_engine)
    ledger.wrap_method(NystromFeatureMap, "transform", "search.index")
    ledger.wrap_method(FeatureIndex, "query_features", "search.index")
    for name in ("parse_predict_request", "parse_topk_request"):
        ledger.wrap_function("repro.serve.server", name, "serve.protocol",
                             on_time=reqs.add_codec)

    class TimedJson:
        """server.py's ``json`` with ``dumps`` (response encoding) timed."""

        dumps = staticmethod(ledger.timed(
            json.dumps, "serve.protocol", on_time=reqs.add_codec))

        def __getattr__(self, name):
            return getattr(json, name)

    ledger.swap(server_mod, "json", TimedJson())


def _serve_ledger(records, reqs: _Requests, plain_records):
    """Serve metrics of the traced window, and how many requests matched."""
    ok = [r for r in records if r.status == 200]
    rows = []
    for r in ok:
        route = reqs.route.get(r.rid)
        submit = reqs.submit.get(r.rid)
        if route is None or submit is None:
            continue
        rows.append(Row(r.kind, r.latency, route, submit,
                        reqs.batch.get(r.rid, 0.0),
                        reqs.codec.get(r.rid, 0.0)))
    prow = [r for r in rows if r.kind == "predict"]
    residual = [r.route - r.codec - r.submit for r in rows]
    lat_sum = sum(r.latency for r in rows)
    traced_mean = np.mean([r.latency for r in ok if r.kind == "predict"])
    plain_mean = np.mean([r.latency for r in plain_records
                          if r.status == 200 and r.kind == "predict"])
    ms = 1e3
    return {
        "serve.codec_ms": ms * float(np.mean([r.codec for r in rows])),
        "serve.batch_wait_ms": ms * common.median(
            [r.submit - r.batch for r in prow]),
        "serve.batch_size_mean": float(np.mean(reqs.batch_sizes)),
        "serve.rejected": len(records) - len(ok),
        "serve.engine_ms": ms * common.median(reqs.engine_s),
        "serve.search_ms": ms * common.median(reqs.search_s),
        "serve.server_p50_ms": ms * common.median([r.route for r in prow]),
        "serve.transport_ms": ms * common.median(
            [r.latency - r.route for r in prow]),
        "unattributed_s": float(np.mean(residual)),
        "unattributed_share": sum(residual) / lat_sum,
        "trace_overhead_share": float(
            (traced_mean - plain_mean) / traced_mean),
    }, len(rows)


def traced(args, steal) -> None:
    import ledger as ledger_mod
    from repro import GramEngine
    from repro.serve import KernelServer, ModelRegistry, ServerThread

    work = common.workdir("serve")
    ledger = ledger_mod.Ledger()
    reqs = _Requests()
    try:
        fixture = Fixture(args.seed, work)
        reg = ModelRegistry(fixture.registry)
        model = reg.load("m")
        model.gpr.engine = GramEngine(model.kernel)
        loaded = reg.load_index("idx")
        loaded.index.feature_map.engine = model.gpr.engine
        # the defaults of `repro serve`
        server = KernelServer(model.gpr, index=loaded.index,
                              max_batch_graphs=64, window_s=0.01,
                              max_queue=256)
        with ServerThread(server) as handle:
            warm(handle.port, fixture)
            plain, _ = closed_loop(handle.port, fixture, args.seed,
                                   args.seconds / 2)
            ledger_mod.install_gram_layers(ledger)
            _install_serve_layers(ledger, reqs, server)
            try:
                records, _ = closed_loop(handle.port, fixture, args.seed,
                                         args.seconds / 2)
            finally:
                ledger.restore()
    finally:
        common.clean_workdir(work)
    fails = fixture.check(plain + records)
    snap = ledger.snapshot()
    values = ledger_mod.gram_layer_metrics(snap["self_s"], snap["counts"])
    # Gram-path layers are reported per batch (predict and top-k)
    n_batches = max(1, len(reqs.batch_sizes) + len(reqs.search_s))
    for key in values:
        if ledger_mod.PER_LAYER_UNITS[key] != "ratio":
            values[key] /= n_batches
    serve_values, n_matched = _serve_ledger(records, reqs, plain)
    values.update(serve_values)
    detail = {
        "workload": "serve_predict", "seed": args.seed,
        "traced_requests": len(records), "matched_requests": n_matched,
        "untraced_requests": len(plain), "batches": n_batches,
        "layer_self_s_total": snap["self_s"], "failed_gates": fails[:20],
    }
    common.emit_ledger(steal, detail, len(plain) + len(records), len(fails),
                       values)
