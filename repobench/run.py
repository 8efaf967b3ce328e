"""Repository benchmark entry point.

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of one workload with no
instrumentation; ``--trace 1`` is a separate run that wraps the
program's layers from outside (see ledger.py) and reports the
per-layer ledger.  Either way the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it carry the run metadata and details (sample counts,
per-repetition figures, failed gates).

Exit codes: 0 on a completed run (even with failed gates, which are
reported as failed operations), 2 when the program sources are
missing, 1 on any other error.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

GRAM_WORKLOADS = ("fragments", "proteins_supervised")
WORKLOADS = GRAM_WORKLOADS + ("serve_predict",)


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# set-up time
# ----------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Body of one fresh set-up process: imports, inputs, engine, and a
    first (small) result.  Prints the wall-clock time the result was
    ready; the parent subtracts the time it spawned the process."""
    import grams

    wl = grams.WORKLOADS[workload](seed, workdir=common.workdir("probe"))
    try:
        wl.warm_up()
        print(time.time(), flush=True)
    finally:
        common.clean_workdir(wl.workdir)


def time_setups(workload: str, seed: int) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh processes, spawn to first
    result (read from the child, so the parent's wait adds nothing)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    times = []
    for _ in range(common.SETUP_PROBES):
        t0 = time.time()
        out = subprocess.run(cmd, check=True, cwd=common.ROOT, timeout=120,
                             stdout=subprocess.PIPE, text=True).stdout
        times.append(float(out.split()[-1]) - t0)
    return times


# ----------------------------------------------------------------------
# Gram workloads
# ----------------------------------------------------------------------


def gram_untraced(args, steal):
    import grams

    work = common.workdir(args.workload)
    try:
        wl = grams.WORKLOADS[args.workload](args.seed, workdir=work)
        wl.warm_up()
        deadline = common.Deadline(args.seconds)
        walls, problems = [], []
        attempted = failed = 0
        while not walls or not deadline.expired(walls[-1]):
            wall, outputs = wl.run()
            walls.append(wall)
            fails = wl.check(outputs)
            attempted += wl.calls
            if fails:
                failed += wl.calls
                problems.extend(fails)
    finally:
        common.clean_workdir(work)
    # Peak memory of the process tree that ran the Gram (supervised
    # workers are child processes), read before the set-up probes add
    # children of their own.
    rss = max(common.peak_rss_mb(), common.peak_rss_mb(children=True))
    setups = time_setups(args.workload, args.seed)
    rates = [wl.pairs / w for w in walls]
    metrics = common.end_to_end(setups, rss, common.median(rates),
                                common.median(walls))
    detail = {
        "workload": args.workload, "seed": args.seed,
        "repetitions": len(walls), "rep_wall_s": walls,
        "pairs_per_rep": wl.pairs, "setup_samples_s": setups,
        "failed_gates": problems[:20],
    }
    common.emit(common.run_metadata(steal), detail, not failed, attempted,
                failed, metrics)


def _traced_rep(ledger, fn):
    """Run ``fn`` on a reset ledger; returns (wall, outputs, snapshot)."""
    ledger.reset()
    wall, outputs = fn()
    return wall, outputs, ledger.snapshot()


def _unattributed(wall: float, snap: dict) -> float:
    return wall - sum(snap["main_self_s"].values())


def gram_traced(args, steal):
    """Alternate untraced and traced repetitions inside one window; the
    ledger is the median over traced repetitions, its counts those of
    the first traced repetition (the others must match them)."""
    import grams
    import ledger as ledger_mod

    work = common.workdir(args.workload)
    ledger = ledger_mod.Ledger()
    plain, traced, snaps = [], [], []
    problems, attempted, failed = [], 0, 0
    try:
        wl = grams.WORKLOADS[args.workload](args.seed, workdir=work)
        wl.warm_up()
        deadline = common.Deadline(args.seconds)
        while not traced or not deadline.expired(plain[-1] + traced[-1]):
            plain.append(wl.run()[0])
            ledger_mod.install_gram_layers(ledger)
            try:
                wall, outputs, snap = _traced_rep(ledger, wl.run)
            finally:
                ledger.restore()
            traced.append(wall)
            snaps.append(snap)
            fails = wl.check(outputs)
            attempted += wl.calls
            if fails:
                failed += wl.calls
                problems.extend(fails)
    finally:
        common.clean_workdir(work)
    per_rep = [ledger_mod.gram_layer_metrics(s["self_s"], s["counts"])
               for s in snaps]
    metrics = _median_ledger(per_rep)
    unattributed = [_unattributed(w, s) for w, s in zip(traced, snaps)]
    metrics["unattributed_s"] = common.median(unattributed)
    metrics["unattributed_share"] = common.median(
        [u / w for u, w in zip(unattributed, traced)])
    t_med, p_med = common.median(traced), common.median(plain)
    metrics["trace_overhead_share"] = (t_med - p_med) / t_med
    counts_repeat = all(s["counts"] == snaps[0]["counts"] for s in snaps)
    detail = {
        "workload": args.workload, "seed": args.seed,
        "traced_reps": len(traced), "traced_wall_s": traced,
        "untraced_wall_s": plain, "counts_repeat_within_run": counts_repeat,
        "failed_gates": problems[:20],
    }
    common.emit_ledger(steal, detail, attempted, failed, metrics)


def _median_ledger(per_rep: list[dict]) -> dict:
    """Times: median over repetitions.  Counts: the first repetition."""
    return {
        key: (common.median([r[key] for r in per_rep]) if key.endswith("_s")
              else per_rep[0][key])
        for key in per_rep[0]
    }


def proteins_traced(args, steal):
    """Worker-side layers from a traced serial run of the same Gram;
    supervisor and block-store layers from a traced supervised run;
    the overhead from an untraced supervised run."""
    import grams
    import ledger as ledger_mod

    work = common.workdir(args.workload)
    ledger = ledger_mod.Ledger()
    problems = []
    try:
        wl = grams.ProteinsSupervised(args.seed, workdir=work)
        wl.warm_up()
        plain_wall, _ = wl.run()
        ledger_mod.install_gram_layers(ledger)
        try:
            serial_wall, serial_res, serial_snap = _traced_rep(
                ledger, wl.serial_reference)
            sup_wall, sup_out, sup_snap = _traced_rep(ledger, wl.run)
        finally:
            ledger.restore()
        problems.extend(wl.check(sup_out))
        sup_res = sup_out[0]
        if not (serial_res.matrix == sup_res.matrix).all():
            problems.append("supervised Gram differs from the serial Gram")
    finally:
        common.clean_workdir(work)
    metrics = ledger_mod.gram_layer_metrics(serial_snap["self_s"],
                                            serial_snap["counts"])
    sup = ledger_mod.gram_layer_metrics(sup_snap["self_s"],
                                        sup_snap["counts"])
    for key in ("supervisor.run_s", "block_store.put_s", "block_store.blocks",
                "block_store.bytes", "engine.core_self_s"):
        metrics[key] = sup[key]
    diag = sup_res.info["diagnostics"]
    metrics["supervisor.retries"] = diag.retries
    metrics["supervisor.respawns"] = diag.respawns
    # serial tile work: everything the serial run spent below the engine
    # front end (what the workers do in the supervised run)
    front = ("engine.core", "engine.fingerprint", "engine.value_cache",
             "engine.tiles", "engine.block_store", "engine.supervisor")
    tile_work = sum(v for k, v in serial_snap["self_s"].items()
                    if k not in front)
    metrics["supervisor.parallel_efficiency"] = tile_work / (
        grams.PROT_WORKERS * sup_wall)
    walls = serial_wall + sup_wall
    unattributed = (_unattributed(serial_wall, serial_snap)
                    + _unattributed(sup_wall, sup_snap))
    metrics["unattributed_s"] = unattributed
    metrics["unattributed_share"] = unattributed / walls
    metrics["trace_overhead_share"] = (sup_wall - plain_wall) / sup_wall
    detail = {
        "workload": args.workload, "seed": args.seed,
        "serial_wall_s": serial_wall, "supervised_wall_s": sup_wall,
        "untraced_supervised_wall_s": plain_wall,
        "serial_tile_work_s": tile_work, "failed_gates": problems[:20],
    }
    failed = 1 if problems else 0
    common.emit_ledger(steal, detail, 1, failed, metrics)


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = _args(argv)
    try:
        common.require_program()
    except common.MissingProgram as exc:
        print(f"repobench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    steal = common.StealMeter()
    if args.workload == "serve_predict":
        import serving

        if args.trace:
            serving.traced(args, steal)
        else:
            serving.untraced(args, steal)
    elif args.trace and args.workload == "proteins_supervised":
        proteins_traced(args, steal)
    elif args.trace:
        gram_traced(args, steal)
    else:
        gram_untraced(args, steal)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        sys.exit(1)
