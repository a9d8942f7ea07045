"""Benchmark of the lpa toolkit: one workload per run, every output checked.

    python3 lpabench/run.py --workload campaign|oracle|structure \
        --seed N --seconds S --trace 0|1

It runs from the root of a source checkout and imports ``lpa`` from
``src/``.  One caller in one thread drives the public calls the CLI makes,
one input at a time (a closed loop).  Each run takes a fixed, seeded set of
inputs and passes over it until ``--seconds`` is spent; an input's latency
is the median over the passes.  Times are scaled as ``clock.py`` describes.
Every output's digest is compared with the one recorded from the real CLI
in ``golden.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes four
passes (untraced, traced, untraced, traced) and prints the per-layer
metrics.  The last line of stdout is the JSON result; a run record goes to
``lpabench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import clock

PROCESS_START = time.perf_counter()  # after interpreter start-up, before lpa

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_PROBES = 9
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
SIZING_NOTE = (
    "single ~1 s runs varied about +-25% on a shared 2-core machine, while the "
    "minimum of 9 in-process rounds stayed within about 10%; hence fixed input "
    "sets, several passes per run, per-input medians and times scaled by an "
    "interleaved reference loop"
)


def nullspan(layer, name):
    return nullcontext()


def import_lpa():
    """Import lpa from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "lpa" / "__init__.py").is_file():
        sys.exit(f"lpabench: no lpa sources at {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import lpa
    import lpa.cli  # noqa: F401  (imports every layer module)

    if Path(lpa.__file__).resolve().parent != (src / "lpa").resolve():
        sys.exit(f"lpabench: imported lpa from {lpa.__file__}, not from {src}")
    return lpa


def tail_percentile(n_inputs: int) -> float:
    """Highest percentile with at least ten inputs beyond it (nearest rank)."""
    best = PERCENTILES[0]
    for p in PERCENTILES:
        if n_inputs - math.ceil(p * n_inputs / 100) >= 10:
            best = p
    return best


def nearest_rank(sorted_values, p: float) -> float:
    return sorted_values[max(math.ceil(p * len(sorted_values) / 100) - 1, 0)]


class Pass:
    """One pass over the inputs: scaled and raw times, failures, bytes."""

    def __init__(self):
        self.latency: dict[str, float] = {}  # scaled, see clock.py
        self.raw: dict[str, float] = {}
        self.wall = 0.0  # scaled
        self.raw_wall = 0.0
        self.factors: list[float] = []
        self.failures: list[tuple[str, str]] = []
        self.bytes_out = 0


def run_pass(lpa, workload, inputs, golden, tracer=None) -> Pass:
    from workloads import CheckFailed, RUNNERS, digest

    runner = RUNNERS[workload]
    span = tracer.span if tracer else nullspan
    res = Pass()
    chunk: list[str] = []

    def close_chunk(t_start, ref_before):
        t_end = time.perf_counter()
        ref_after = clock.reference_loop()
        factor = clock.scale(ref_before, ref_after)
        for key in chunk:
            res.latency[key] = res.raw[key] * factor
        res.raw_wall += t_end - t_start
        res.wall += (t_end - t_start) * factor
        res.factors.append(factor)
        chunk.clear()
        return time.perf_counter(), ref_after

    gc.collect()
    ref = clock.reference_loop()
    t_chunk = time.perf_counter()
    for inp in inputs:
        if tracer:
            tracer.input_id = inp.key
        t0 = time.perf_counter()
        try:
            text = runner(lpa, inp, span)
        except CheckFailed as exc:
            text = None
            res.failures.append((inp.key, str(exc)))
        except Exception as exc:  # an input that raises is a failed input
            text = None
            res.failures.append((inp.key, f"raised {type(exc).__name__}: {exc}"))
        res.raw[inp.key] = time.perf_counter() - t0
        chunk.append(inp.key)
        if text is not None:
            res.bytes_out += len(text.encode("utf-8"))
            if digest(text) != golden.get(inp.key):
                res.failures.append(
                    (inp.key, f"JSON digest {digest(text)} != recorded {golden.get(inp.key)}")
                )
        if time.perf_counter() - t_chunk >= clock.CHUNK_S:
            t_chunk, ref = close_chunk(t_chunk, ref)
    if chunk:
        close_chunk(t_chunk, ref)
    if tracer:
        tracer.input_id = None
    return res


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Time from starting a fresh process to its inputs being ready:
    scaled and raw samples."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    if args.smallest:
        cmd.append("--smallest")
    scaled, raw = [], []
    ref = clock.reference_loop()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or not line.startswith("ready"):
            sys.exit(f"lpabench: setup probe failed with code {proc.returncode}")
        ref_after = clock.reference_loop()
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * clock.scale(ref, ref_after))
        ref = ref_after
    return scaled, raw


def run_record(lpa, args, inputs) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    families: dict[str, list[int]] = {}
    for inp in inputs:
        families.setdefault(inp.family, []).append(inp.size)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "lpa_version": lpa.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "inputs": len(inputs),
        "input_sizes": {f: sorted(set(s)) for f, s in families.items()},
        "input_counts": {f: len(s) for f, s in families.items()},
        "sizing_note": SIZING_NOTE,
    }


def size_rows(inputs, latency) -> list[dict]:
    """Median latency per (family, size), so each family's growth can be read."""
    groups: dict[tuple, list[float]] = {}
    for inp in inputs:
        if inp.key in latency:
            groups.setdefault((inp.family, inp.size), []).append(latency[inp.key])
    return [
        {"family": f, "size": s, "inputs": len(v), "median_ms": statistics.median(v) * 1e3}
        for (f, s), v in sorted(groups.items())
    ]


def end_to_end(lpa, args, inputs, golden, record) -> tuple[dict, int, int]:
    setup_samples, setup_raw = measure_setup(args)
    passes: list[Pass] = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(lpa, args.workload, inputs, golden))
        elapsed = time.perf_counter() - t_start
        if elapsed * (1 + 1 / len(passes)) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_input = {
        inp.key: statistics.median(p.latency[inp.key] for p in passes)
        for inp in inputs
    }
    lat = sorted(per_input.values())
    pct = tail_percentile(len(lat))
    attempted = len(inputs) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "graphs_per_s": (len(inputs) / statistics.median(p.wall for p in passes), "1/s"),
        "graph_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "graph_tail_ms": (nearest_rank(lat, pct) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "verified_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    record.update(
        setup_samples_s=setup_samples,
        setup_raw_s=setup_raw,
        passes=len(passes),
        pass_wall_s=[p.wall for p in passes],
        pass_raw_wall_s=[p.raw_wall for p in passes],
        scale_factors=[round(f, 4) for p in passes for f in p.factors],
        samples=attempted,
        tail_percentile=pct,
        inputs_beyond_tail=len(lat) - math.ceil(pct * len(lat) / 100),
        failed_ratio=failed / attempted,
        failures=[f for p in passes for f in p.failures][:20],
        bytes_out_per_pass=passes[0].bytes_out,
        size_rows=size_rows(inputs, per_input),
    )
    return metrics, attempted, failed


# Per-layer metrics, by how they are read from a traced pass.
COUNTS = (
    "graphs.simple_cycles_calls", "graphs.cycles_found", "graphs.tree_calls",
    "graphs.count_paths_into_calls", "graphs.errors",
    "hereditary.entry_paths_calls", "hereditary.entry_paths_found", "hereditary.errors",
    "classify.errors",
    "engine.commutator_calls", "engine.normal_form_calls", "engine.oracle_candidates",
    "engine.errors",
    "center.oracle_rows", "center.kernel_dim", "center.basis_elements", "center.errors",
    "reports.bytes_out",
)
INCLUSIVE = {
    "graphs.parse_graph_s": "graphs.parse_graph",
    "classify.x_decomposition_s": "classify.x_decomposition",
    "classify.ideal_structure_s": "classify.ideal_structure",
    "classify.prime_trichotomy_s": "classify.prime_trichotomy",
    "engine.normal_monomials_s": "engine.normal_monomials",
    "center.center_report_s": "center.center_report",
    "center.verify_basis_s": "center.verify_basis",
    "center.kernel_basis_s": "center.kernel_basis",
    "center.same_span_s": "center.same_span",
    "reports.to_json_s": "reports.to_json",
}
SELF = {
    "center.oracle_matrix_s": "center.oracle_commutant",
    "reports.dumps_s": "reports.dumps",
}
LAYER_SELF = ("graphs", "hereditary", "classify", "engine", "center")


def layer_metrics(counts, summary, factor: float) -> dict:
    """Per-layer metrics of one traced pass; span times scaled by `factor`."""
    out = {name: (float(counts[name]), "count") for name in COUNTS}
    for name, span in INCLUSIVE.items():
        out[name] = (summary["inclusive"][span] * factor, "s")
    for name, span in SELF.items():
        out[name] = (summary["self"][span] * factor, "s")
    for layer in LAYER_SELF:
        out[f"{layer}.self_s"] = (summary["layer_self"][layer] * factor, "s")
    cands = counts["engine.oracle_candidates"]
    out["center.kernel_yield"] = (counts["center.kernel_dim"] / cands if cands else 0.0, "ratio")
    return out


def traced(lpa, args, inputs, golden, tracer, stream_s, record) -> tuple:
    """Untraced and traced passes, alternating, so both see the same machine."""
    untraced, runs = [], []
    for _ in range(2):
        untraced.append(run_pass(lpa, args.workload, inputs, golden))
        tracer.install()
        try:
            before = tracer.counts.copy()
            mark = tracer.mark()
            res = run_pass(lpa, args.workload, inputs, golden, tracer)
        finally:
            tracer.uninstall()
        counts = tracer.counts - before
        counts["reports.bytes_out"] = res.bytes_out
        runs.append((res, counts, mark, tracer.mark()))
    (a, counts_a, *_), (b, counts_b, *_) = runs
    mismatched = sorted(k for k in set(counts_a) | set(counts_b) if counts_a[k] != counts_b[k])
    best, _, since, until = min(runs, key=lambda r: r[0].wall)
    summary = tracer.summary(since, until)
    metrics = layer_metrics(counts_a, summary, best.wall / best.raw_wall)
    metrics["randomgen.graph_stream_s"] = (stream_s, "s")
    metrics["trace.overhead_s"] = (best.wall - min(p.wall for p in untraced), "s")
    metrics["trace.unattributed_share"] = ((best.raw_wall - summary["top"]) / best.raw_wall, "ratio")
    passes = (*untraced, a, b)
    attempted = len(inputs) * len(passes)
    failed = sum(len(p.failures) for p in passes) + (1 if mismatched else 0)
    record.update(
        untraced_wall_s=[p.wall for p in untraced],
        untraced_raw_wall_s=[p.raw_wall for p in untraced],
        traced_wall_s=[a.wall, b.wall],
        traced_raw_wall_s=[a.raw_wall, b.raw_wall],
        counts_repeat=not mismatched,
        counts_mismatched=mismatched,
        failures=[f for p in passes for f in p.failures][:20],
        all_counts=dict(sorted(counts_a.items())),
        spans_per_pass=until - since,
    )
    return metrics, attempted, failed, (since, until)


def write_spans(tracer, since: int, until: int, path: Path) -> None:
    """One traced pass as JSON lines: name, parent line (-1 for none),
    start, end, input id."""
    with gzip.open(path, "wt") as fh:
        for name, _layer, start, end, parent, input_id in tracer.spans[since:until]:
            parent = parent - since if parent >= since else -1
            fh.write(json.dumps([name, parent, round(start, 7), round(end, 7), input_id]) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("campaign", "oracle", "structure"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smallest", action="store_true",
                    help="only the smallest size of each family (smoke test)")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.trace and os.environ.get("PYTHONHASHSEED") != "0":
        # lpa iterates sets of vertex names in short-circuiting loops, so its
        # work counts depend on string hashing: fix it, so counts repeat
        # across runs as well as across passes.
        argv = sys.argv[1:] if argv is None else argv
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    lpa = import_lpa()
    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads

    build = workloads.BUILDERS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(lpa)
        ref = clock.reference_loop()
        tracer.install()
        try:
            inputs = build(lpa, args.seed, args.smallest)
        finally:
            tracer.uninstall()
        setup = tracer.summary(0, tracer.mark())
        stream_s = setup["inclusive"]["randomgen.graph_stream"] * clock.scale(
            ref, clock.reference_loop()
        )
    else:
        inputs = build(lpa, args.seed, args.smallest)
    if args.probe_setup:
        print("ready", len(inputs), flush=True)
        return 0

    own_setup_s = time.perf_counter() - PROCESS_START
    golden = json.loads((BENCH / "golden.json").read_text())
    record = run_record(lpa, args, inputs)
    record["own_setup_s"] = own_setup_s
    if tracer:
        metrics, attempted, failed, (since, until) = traced(
            lpa, args, inputs, golden, tracer, stream_s, record
        )
    else:
        metrics, attempted, failed = end_to_end(lpa, args, inputs, golden, record)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer:
        write_spans(tracer, since, until, OUT / f"{stem}-spans.jsonl.gz")

    for row in record.get("size_rows", []):
        print(f"{row['family']:>14} {row['size']:>5}  {row['median_ms']:10.3f} ms  (x{row['inputs']})")
    for k, (v, u) in metrics.items():
        print(f"{k:>32} {v:14.6f} {u}")
    for key, why in record["failures"]:
        print(f"FAILED {key}: {why}")
    if record.get("counts_mismatched"):
        print(f"FAILED counts differ between the traced passes: {record['counts_mismatched']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
