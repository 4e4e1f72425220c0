"""kronhf benchmark: closed-loop verdict workloads with independent answer checks.

    python3 bench/run.py --workload {pencil,expander,witness,sl2p} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from src/.
One process, one client, one thread: each op starts when the previous one
has returned. Every op's verdict is checked against a known answer after
the timed loop. The last line of standard output is the result object;
the line before it is a report with the environment and run details.

--trace 0 measures the end-to-end metrics. --trace 1 spends half of the
time untraced and half with spans around each layer's entry points, then
runs one pass of the inputs again with field-operation counting, and
reports the per-layer metrics (see bench/layers.json).
"""

import os

# pinned before numpy can be imported, here and in the set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib.metadata
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("pencil", "expander", "witness", "sl2p")
SETUP_PROBES = 2      # extra set-ups in fresh processes; setup_s is the median of all
NO_WAIT = "none: one thread, no queue, so no layer waits"
PROBE_REF_S = 150e-6  # speed_probe() on a quiet machine of the kind the bounds were set on


def setup(workload, seed):
    """Import the program (and sympy where the workload uses it) and build the
    inputs. Returns (workload, inputs, seconds taken, probe time around it)."""
    before = steady_probe()
    t0 = time.perf_counter()
    if not (SRC / "kronhf" / "__init__.py").is_file():
        raise FileNotFoundError(f"no kronhf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[workload]
    if wl.uses_sympy:
        import sympy  # noqa: F401  (the program imports it lazily on first use)
    inputs = wl.inputs(seed)
    seconds = time.perf_counter() - t0
    return wl, inputs, seconds, (before + steady_probe()) / 2


def probe_setup(workload, seed):
    """(set-up seconds, probe seconds) measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return tuple(json.loads(out.stdout.strip().splitlines()[-1]))


class Op:
    __slots__ = ("index", "result", "error", "seconds", "probe_s")

    def __init__(self, index, result, error, seconds):
        self.index, self.result, self.error, self.seconds = index, result, error, seconds
        self.probe_s = None


def run_op(wl, inputs, i):
    index = i % len(inputs)
    t0 = time.perf_counter()
    try:
        result, error = wl.op(inputs[index]), None
    except Exception:  # a failing op is counted and reported, the run goes on
        result, error = None, traceback.format_exc(limit=3)
    return Op(index, result, error, time.perf_counter() - t0)


def speed_probe():
    """Time of a fixed pure-Python loop (about 0.2 ms): the machine's speed now."""
    t0 = time.perf_counter()
    s, d = 0, {}
    for i in range(1500):
        s += i * i % 7
        d[i & 63] = s
    return time.perf_counter() - t0


def steady_probe():
    """Median of five probes, for a one-off measurement such as set-up."""
    return statistics.median(speed_probe() for _ in range(5))


def measure(wl, inputs, seconds):
    """Closed loop over the inputs, in order, until `seconds` have passed.
    Each op is bracketed by speed probes; returns (ops, elapsed seconds)."""
    ops = []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    before = speed_probe()
    while not ops or time.perf_counter() < deadline:
        op = run_op(wl, inputs, len(ops))
        after = speed_probe()
        op.probe_s = (before + after) / 2
        before = after
        ops.append(op)
    return ops, time.perf_counter() - t0


def scaled_seconds(ops):
    """Op times scaled to a machine on which the speed probe takes PROBE_REF_S.

    The machine is shared: its speed swings by up to 2x within seconds and
    drifts over minutes (probe times from 0.13 to 0.36 ms on the 2-vCPU Xeon
    the bounds were set on). Scaling each op by the probe time around it
    halves the spread of repeated ops and narrows the drift between runs
    taken minutes apart. The unscaled figures are in the report line.
    """
    return [op.seconds * PROBE_REF_S / op.probe_s for op in ops]


def complete_passes(seconds, pass_len):
    """Op times grouped by complete pass (each pass is the same mix of work),
    or all of them as one group when no pass completed."""
    n = len(seconds) // pass_len * pass_len
    return [seconds[i:i + pass_len] for i in range(0, n, pass_len)] or [seconds]


def pass_rate(passes):
    """Median over passes of ops per second."""
    return statistics.median(len(p) / sum(p) for p in passes)


def tail(latencies, pct):
    """Nearest-rank percentile and the number of ops beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def check_ops(wl, inputs, ops, seed, ref):
    failures = []
    for op in ops:
        reason = op.error or wl.check(inputs[op.index], op.result, op.index, seed, ref)
        if reason is not None:
            failures.append(f"input {op.index}: {reason.strip()}")
    return failures


def per_layer(traced, tracer, counter, overhead):
    """Per-layer metrics: calls and counts from the counting pass (exact for a
    given seed), self time per op and rates from the traced phase, its times
    scaled like the ops' by the median probe of that phase."""
    out = {}
    scale = PROBE_REF_S / statistics.median(op.probe_s for op in traced)
    for name in tracing.SPAN_METRICS:
        out[f"{name}.calls"] = (counter.calls[name], "count")
        out[f"{name}.self_s"] = (tracer.self_s[name] * scale / len(traced), "s/op")
    c = counter.counts
    out["matrices.rref.cells"] = (c["matrices.rref.cells"], "count")
    out["matrices.rank.fastpath_frac"] = (
        _ratio(c["rank_fastpath"], counter.calls["matrices.rank"]), "ratio")
    out["pencil.fastpath_frac"] = (
        _ratio(c["pencil_fastpath"], counter.calls["pencil.decompose_pencil"]), "ratio")
    out["expander.subspaces"] = (c["expander.subspaces"], "count")
    out["expander.enumerated_frac"] = (
        _ratio(c["expander.subspaces"], c["expander.expected_total"]), "ratio")
    out["expander.subspaces_per_s"] = (
        _ratio(tracer.counts["expander.subspaces"],
               tracer.incl_s["expander.check_exhaustive"] * scale),
        "1/s")
    out["witness.splits"] = (c["witness.splits"], "count")
    out["fields.ops"] = (c["fields.ops"], "count")
    out["trace.ops_per_s_delta"] = (overhead, "1/s")
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def environment():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "threads_env": os.environ["OMP_NUM_THREADS"],
    }


def _git_sha():
    """HEAD of a .git directory at the checkout root, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "kronhf").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        wl, inputs, setup_s, setup_speed = setup(args.workload, args.seed)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps([setup_s, setup_speed]))
        return 0
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    setups = [(setup_s, setup_speed)]
    setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    setup_scaled = statistics.median(t * PROBE_REF_S / p for t, p in setups)

    # The input pool is the benchmark's, far larger than one CLI call's data;
    # frozen, it is not rescanned by every full collection inside timed ops.
    gc.collect()
    gc.freeze()
    warm = run_op(wl, inputs, 0)       # lazy set-up inside the program, untimed
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": len(inputs), "pass_len": wl.pass_len,
              "setup_samples_s": [t for t, _ in setups], "layer_wait": NO_WAIT}
    if args.trace == 0:
        timed, elapsed = measure(wl, inputs, args.seconds)
        all_ops = [warm] + timed
        # latencies from complete passes only, so every slot has equal weight
        passes = complete_passes(scaled_seconds(timed), wl.pass_len)
        lat = [t for p in passes for t in p]
        tail_s, beyond = tail(lat, wl.tail_pct)
        raw = complete_passes([op.seconds for op in timed], wl.pass_len)
        raw_lat = [t for p in raw for t in p]
        metrics = {
            "ops_per_s": (pass_rate(passes), "1/s"),
            "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
            "op_ms_tail": (tail_s * 1e3, "ms"),
            "setup_s": (setup_scaled, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report.update(ops=len(timed), passes=len(passes), elapsed_s=elapsed,
                      tail_percentile=wl.tail_pct, ops_beyond_tail=beyond,
                      unscaled={"ops_per_s": pass_rate(raw), "mean_ops_per_s": len(timed) / elapsed,
                                "op_ms_p50": statistics.median(raw_lat) * 1e3,
                                "op_ms_tail": tail(raw_lat, wl.tail_pct)[0] * 1e3},
                      probe_ms={"ref": PROBE_REF_S * 1e3,
                                "min": min(op.probe_s for op in timed) * 1e3,
                                "median": statistics.median(op.probe_s for op in timed) * 1e3})
    else:
        plain, _ = measure(wl, inputs, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced, _ = measure(wl, inputs, args.seconds / 2)
        counter = tracing.Tracer()
        with tracing.installed(counter, count_field_ops=counter.counts):
            counted = [run_op(wl, inputs, i) for i in range(wl.pass_len)]
        all_ops = [warm] + plain + traced + counted
        plain_rate = len(plain) / sum(scaled_seconds(plain))
        traced_rate = len(traced) / sum(scaled_seconds(traced))
        metrics = per_layer(traced, tracer, counter, traced_rate - plain_rate)
        report.update(ops_untraced=len(plain), ops_traced=len(traced),
                      ops_counted=len(counted), ops_per_s_untraced=plain_rate,
                      ops_per_s_traced=traced_rate)
    failures = check_ops(wl, inputs, all_ops, args.seed, ref)
    report.update(attempted=len(all_ops), failed=len(failures),
                  fail_frac=len(failures) / len(all_ops), first_failures=failures[:5],
                  verdicts=dict(Counter("error" if op.error else wl.verdict(op.result)
                                        for op in all_ops)),
                  environment=environment())
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": not failures, "attempted": len(all_ops), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
