"""beslab benchmark: one workload per run, end-to-end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload certify-small --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced repetition (see ``tracer.py``).  The full result
document (metrics, percentiles with their operation counts, provenance) is
printed on one line and saved under ``.perfbench_out/``; the last line of
stdout is the summary ``{"correct", "attempted", "failed", "metrics"}``.
The program under test is imported from ``src/`` of the same checkout and
nothing else: the run fails when it is missing.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 5
# After each timed operation the harness runs the fixed calibration chunk
# for at least this share of the operation's time.
CAL_SHARE = 0.25
# The time of one calibration chunk at the reference speed.  It only fixes
# the unit: about what a chunk took on the 2-CPU x86_64 VM (Intel Xeon,
# CPython 3.11.7) the benchmark was built on, where it took 0.19-0.48 ms.
REF_CHUNK_S = 0.3e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import beslab from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    try:
        import beslab
    except ImportError as exc:
        raise SystemExit(f"error: cannot import beslab from {SRC}: {exc}")
    if Path(beslab.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: beslab was imported from {beslab.__file__}, not {SRC}")
    return beslab


def _reimport() -> None:
    """Import beslab again from src/, as a fresh interpreter would (its
    compiled files are cached by then), and put the loaded modules back."""
    def ours():
        return [name for name in sys.modules if name == "beslab" or name.startswith("beslab.")]

    saved = {name: sys.modules.pop(name) for name in ours()}
    try:
        importlib.import_module("beslab.cli")
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)


def _isolate(tmp: Path) -> None:
    """No shared cache, no worker pool: explicit paths and one process."""
    os.environ.pop("BESLAB_CACHE", None)
    os.environ.pop("BESLAB_THREADS", None)
    os.environ["HOME"] = str(tmp)


def tail_percentile(ops_per_job: int) -> int:
    """Highest whole percentile with at least 10 of one job list's operations
    beyond it; 100 (the slowest operation) when a job list has fewer than 20."""
    if ops_per_job < 20:
        return 100
    return math.floor(100 * (1 - 10 / ops_per_job))


def percentile(xs: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _calibration_chunk() -> int:
    """A fixed piece of interpreter work in the library's style: small
    tuples, bit masks, frozensets, dict and list updates, and calls."""
    seen = set()
    index: dict[int, list[int]] = {}
    acc = 0
    for i in range(300):
        e = (i & 31, (i * 7) & 31, (i * 13) & 31)
        mask = (1 << e[0]) | (1 << e[1]) | (1 << e[2])
        acc += mask.bit_count()
        seen.add(frozenset(e))
        index.setdefault(e[0], []).append(mask)
    return acc + len(seen) + sum(map(len, index.values()))


class Calibration:
    """How fast the machine runs the calibration chunk, sampled in between
    the timed work.  On a shared host the speed of a CPU changes from one
    millisecond and one minute to the next; the same work sampled in the same
    stretches gives the factor that takes a time back to the reference speed.
    """

    def __init__(self):
        self.seconds = 0.0
        self.chunks = 0

    def sample(self, at_least: float) -> None:
        """Run whole chunks until at least ``at_least`` seconds have passed.
        The collector is off meanwhile: the chunk frees all it allocates, and
        a collection would cost in proportion to the workload's heap."""
        gc.disable()
        try:
            t = time.perf_counter()
            while True:
                _calibration_chunk()
                self.chunks += 1
                elapsed = time.perf_counter() - t
                if elapsed >= at_least:
                    break
        finally:
            gc.enable()
        self.seconds += elapsed

    def chunk_s(self) -> float:
        return self.seconds / self.chunks

    def factor(self) -> float:
        """Reference time per measured time."""
        return REF_CHUNK_S / self.chunk_s()


class Runner:
    """Times one workload's job lists and checks every output."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def rep(self, index: int, tracer=None, cal: Calibration | None = None
            ) -> tuple[float, list[tuple[str, float]]]:
        """One job list: its time and each operation's (label, seconds).
        With ``cal``, a calibration sample follows each operation."""
        ops = self.wl.job(index)
        outs = []
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                if op.prepare is not None:
                    op.prepare()
                if tracer is not None:
                    tracer.op_id = i
                t = time.perf_counter()
                try:
                    out, err = op.run(), None
                except Exception:  # an operation that raises counts as failed
                    out, err = None, traceback.format_exc()
                d = time.perf_counter() - t
                outs.append((op, out, err, d))
                if cal is not None:
                    cal.sample(CAL_SHARE * d)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for op, out, err, _ in outs:
            self.attempted += 1
            if err is None:
                try:
                    ok = bool(op.check(out))
                except Exception:
                    ok, err = False, traceback.format_exc()
                if not ok and err is None:
                    err = f"{op.label}: output differs from its reference"
            if err is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(err)
        samples = [(op.label, d) for op, _, _, d in outs]
        return sum(d for _, d in samples), samples


def measure(wl_cls, refs, seed: int, seconds: float, tmp: Path, import_s: float) -> dict:
    setups: list[float] = []

    def set_up():
        where = tmp / f"setup{len(setups)}"
        where.mkdir()
        gc.collect()
        t = time.perf_counter()
        _reimport()
        wl = wl_cls(refs, seed)
        wl.setup(where)
        setups.append(time.perf_counter() - t)
        return wl

    # Every set-up builds the same inputs.  They are spread over the run, so
    # that their median does not rest on one stretch of the machine.
    runner = Runner(set_up())
    runner.rep(0)  # warm-up, not counted
    cal = Calibration()
    walls: list[float] = []
    per_op: list[list[float]] = []  # each operation's times, in job-list order
    measured = 0.0
    while not walls or measured < seconds:
        if len(setups) < SETUP_REPEATS and measured >= len(setups) * seconds / SETUP_REPEATS:
            runner.wl = set_up()
        t = time.perf_counter()
        wall, samples = runner.rep(len(walls) + 1, cal=cal)
        measured += time.perf_counter() - t
        walls.append(wall)
        if not per_op:
            labels = [label for label, _ in samples]
            per_op = [[] for _ in samples]
        for times, (_, d) in zip(per_op, samples):
            times.append(d)
    while len(setups) < SETUP_REPEATS:
        set_up()
    # Each operation counts at its mean over the repetitions, taken back to
    # the reference speed with the calibration sampled in between them.  The
    # set-ups, too short to carry samples of their own, are taken back with
    # the same factor.
    factor = cal.factor()
    ref_op = [factor * statistics.fmean(times) for times in per_op]
    tail_p = tail_percentile(len(ref_op))
    values = {
        "setup_s": factor * statistics.median(setups),
        "wall_s": sum(ref_op),
        "ops_per_s": len(ref_op) / sum(ref_op),
        "op_p50_ms": 1000 * statistics.median(ref_op),
        "op_tail_ms": 1000 * percentile(ref_op, tail_p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {
        "runner": runner,
        "metrics": metrics,
        "details": {
            "failed_frac": {"value": runner.failed / runner.attempted, "unit": "ratio"},
            "percentiles": {
                "op_p50_ms": {"percentile": 50, "operations": len(ref_op), "repetitions": len(walls)},
                "op_tail_ms": {"percentile": tail_p, "operations": len(ref_op), "repetitions": len(walls)},
            },
            "calibration": {"chunk_s": cal.chunk_s(), "chunks": cal.chunks,
                            "ref_chunk_s": REF_CHUNK_S, "factor": factor},
            "measured_wall_s": {"mean": statistics.fmean(walls),
                                "min_per_op_sum": sum(min(times) for times in per_op)},
            "wall_s_samples": walls,
            "import_s": import_s,
            "setup_s_samples": setups,
            "workload": runner.wl.report(list(zip(labels, ref_op))),
        },
    }


def trace(wl_cls, refs, seed: int, seconds: float, tmp: Path) -> dict:
    from tracer import Tracer, per_layer_units

    where = tmp / "setup0"
    where.mkdir()
    wl = wl_cls(refs, seed)
    wl.setup(where)
    runner = Runner(wl)
    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    layer: dict[str, float] = {}
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        plain.append(runner.rep(2 * len(traced))[0])
        tracer.reset()
        traced.append(runner.rep(2 * len(traced) + 1, tracer)[0])
        if not layer:
            layer = tracer.metrics()
            tracer.write(OUT / f"spans-{wl.name}.bin")
    tracer.reset()
    # The pairs alternate, so both sides sample the same stretches of the
    # machine; the first pair is the warm-up when there are more.
    skip = 1 if len(traced) > 1 else 0
    layer["trace.overhead_frac"] = sum(traced[skip:]) / sum(plain[skip:]) - 1.0
    units = per_layer_units()
    return {
        "runner": runner,
        "metrics": {k: {"value": layer[k], "unit": u} for k, u in units.items()},
        "details": {"untraced_s_samples": plain, "traced_s_samples": traced,
                    "spans_file": f"spans-{wl.name}.bin"},
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS, load_references

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refs = load_references(HERE / "references.json")
    wl_cls = WORKLOADS[args.workload]
    TMP.mkdir(exist_ok=True)
    tmp = TMP / f"{args.workload}-{os.getpid()}"
    tmp.mkdir()
    try:
        _isolate(tmp)
        if args.trace:
            result = trace(wl_cls, refs, args.seed, args.seconds, tmp)
        else:
            result = measure(wl_cls, refs, args.seed, args.seconds, tmp, IMPORT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    runner = result["runner"]
    for err in runner.errors:
        print(err, file=sys.stderr)
    summary = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result["metrics"],
    }
    doc = {
        "workload": args.workload,
        "why": wl_cls.why,
        "seconds": args.seconds,
        "trace": args.trace,
        **summary,
        **result["details"],
        "provenance": provenance(args.seed),
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    _import_program()
    IMPORT_S = time.perf_counter() - _T_START
    sys.exit(main())
