"""tjcm benchmark: one closed-loop client, three workloads, checked outputs.

Run from the repository root:

    python3 benchmarks/run.py --workload presets|sweep|verify \
        --seed N --seconds S --trace 0|1

Each workload has a fixed set of distinct ops (one op = one user-visible
call), chosen by the seed.  A run makes passes over the set, each pass
every op once in seed-shuffled order, one op after another:

- ``presets``: ``tjcm preset fig1..fig4 --out CSV``, each in a fresh
  process, so every op pays ``import tjcm``.  Outputs are compared with
  the reference CSVs captured from the seed commit to 1e-12.
- ``sweep``: 24 in-process ``run_scan`` + ``write_csv`` ops of all 14
  per-atom channels on a 500-point grid over [0, 25]: alpha evenly over
  [1, 20] with l alternating 1, 2 along it, g log-uniform in [0.25, 4]
  drawn from the seed (see ``sweep_params``).  Every pass runs in a fresh
  worker process (``sweep_worker.py``), so no process sees the same
  parameters twice.
- ``verify``: ``tjcm verify --alpha 5 --g G --l L --samples 50 --tmax 3``
  in a fresh process for the fig1, fig2 and fig4 parameter sets.  An op
  passes on exit code 0 and a ``verify PASS`` line.

Passes are never cut: the run makes at least one and starts another only
while, judged by the length of the last one, it would end within
``--seconds``.  Every op of every pass is checked.  An op's time is its
wall time scaled to a fixed reference host speed by calibrations taken
right before and after it (see ``calibrate``), and its median over the
passes.  ``op_p50_s`` and ``op_tail_s`` are taken over every op of the run,
``work_per_s`` over the per-op medians.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` every op runs twice, untraced and traced in alternating
order, the two outputs must be byte-identical, and the last line reports
the per-layer metrics from the spans (see ``spans.py``).  Human-readable
metric lines precede it, and a results file with the environment, every op
and the spans is written under ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

# numpy is imported inside the functions that need it, after main() has
# capped the BLAS threads, so that the cap holds in this process too.

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_ROOT = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"

WORKLOADS = ("presets", "sweep", "verify")
DEFAULT_SEED = 0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
OP_TIMEOUT_S = 170.0
TAIL_BEYOND = 10
# Host-speed calibration: best of CAL_REPEATS runs of calibration_kernel()
# right before and right after each op.  CAL_REF_S is the kernel time that
# defines the reference speed reported times are scaled to (about its median
# on the 2-vCPU 2.1 GHz Xeon host the bounds were set on).  Across that
# host's speed swings op times move less than the kernel does, so times scale
# by the ratio to a measured power: about 0.5 for fresh-process ops (half
# their time is ``import tjcm``), 0.75 for sweep ops, which run in the same
# process as their calibrations.
CAL_REPEATS = 3
CAL_REF_S = 8.0e-3
CAL_EXPONENT = {"presets": 0.5, "sweep": 0.75, "verify": 0.5}
CAL_EXPONENT_SETUP = 0.5

PRESETS = ("fig1", "fig2", "fig3", "fig4")
VERIFY_SETS = {"fig1": (5.0, 0.5, 1), "fig2": (5.0, 0.5, 2), "fig4": (5.0, 1.0, 1)}
VERIFY_SAMPLES = 50
VERIFY_T_MAX = 3.0
SWEEP_OPS = 24
SWEEP_T_MAX = 25.0
SWEEP_STEPS = 500
SWEEP_ALPHA = (1.0, 20.0)
SWEEP_G = (0.25, 4.0)
ATOM_CHANNELS = tuple(
    f"{kind}{atom}" for kind in ("inv", "sy", "ey", "ex", "fy", "gamma", "eur")
    for atom in (1, 2)
)
REFERENCE_TOL = 1e-12
LN2 = math.log(2.0)

# The console script ``tjcm`` is ``tjcm.cli:run``; ``-c`` runs the same entry
# point from the source tree without an install.
CLI = [sys.executable, "-c", "from tjcm.cli import run; run()"]
TRACED_CLI = [sys.executable, str(BENCH_DIR / "traced_cli.py")]
SWEEP_WORKER = [sys.executable, str(BENCH_DIR / "sweep_worker.py")]
SETUP_PROBE = (
    "import json, sys, time\n"
    "n = len(sys.modules)\n"
    "t = time.perf_counter()\n"
    "import tjcm\n"
    "t = time.perf_counter() - t\n"
    "print(json.dumps([t, len(sys.modules) - n, tjcm.__file__]))\n"
)

END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "params.busy_s": "s/op",
    "params.calls": "count/op",
    "blocks.spectrum_s": "s/op",
    "blocks.evolve_s": "s/op",
    "blocks.n_blocks": "count/op",
    "blocks.amplitudes": "count/op",
    "reduced.busy_s": "s/op",
    "reduced.terms": "count/op",
    "scan.self_s": "s/op",
    "scan.csv_s": "s/op",
    "scan.csv_bytes": "B/op",
    "jcm.busy_s": "s/op",
    "jcm.calls": "count/op",
    "oracle.build_s": "s/op",
    "oracle.integrate_s": "s/op",
    "oracle.trace_s": "s/op",
    "oracle.rk4_steps": "count/op",
    "oracle.dim": "count",
    "oracle.max_state_dev": "1",
    "import.modules": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "1",
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, broken import)."""


# ---------------------------------------------------------------- inputs

def sweep_params(seed: int) -> list[tuple[float, float, int]]:
    """The seed's SWEEP_OPS distinct (alpha, g, l) sweep inputs.

    alpha takes the midpoints of SWEEP_OPS equal strata of SWEEP_ALPHA and l
    alternates 1, 2 along them: alpha sets the truncation and with l most of
    an op's cost, so every seed's set costs about the same.  g takes one
    log-uniform draw from each of SWEEP_OPS equal strata of SWEEP_G, paired
    with the alphas in seed-shuffled order.
    """
    rng = random.Random(seed)
    a_lo, a_hi = SWEEP_ALPHA
    lg_lo, lg_hi = math.log(SWEEP_G[0]), math.log(SWEEP_G[1])
    g_strata = rng.sample(range(SWEEP_OPS), SWEEP_OPS)
    params = []
    for k in range(SWEEP_OPS):
        alpha = a_lo + (a_hi - a_lo) * (k + 0.5) / SWEEP_OPS
        g = math.exp(lg_lo + (lg_hi - lg_lo) * (g_strata[k] + rng.random()) / SWEEP_OPS)
        params.append((alpha, g, 1 + k % 2))
    return params


def sweep_config(alpha: float, g: float, l: int):
    """The ScanConfig of one sweep op."""
    import tjcm.params
    import tjcm.scan
    return tjcm.scan.ScanConfig(
        params=tjcm.params.ModelParams(alpha=alpha, g=g, l=l),
        t_max=SWEEP_T_MAX, steps=SWEEP_STEPS, channels=ATOM_CHANNELS)


def shuffled_passes(seed: int, items):
    """Endless stream of passes, each every item once in seed-shuffled order."""
    rng = random.Random(seed)
    while True:
        batch = list(items)
        rng.shuffle(batch)
        yield batch


# ---------------------------------------------------------------- checks

def read_table(path) -> tuple[list[str], "np.ndarray"]:
    import numpy as np
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def load_reference(name: str) -> dict:
    import numpy as np
    with np.load(REFERENCE_DIR / f"{name}.npz") as z:
        return {k: z[k] for k in z.files}


def compare_reference(header, data, ref_header, ref_data) -> str | None:
    """None when header and values match the reference to REFERENCE_TOL."""
    import numpy as np
    if list(header) != list(ref_header):
        return f"header {header} != reference {list(ref_header)}"
    if data.shape != ref_data.shape:
        return f"shape {data.shape} != reference {ref_data.shape}"
    dev = float(np.max(np.abs(data - ref_data)))
    if not dev <= REFERENCE_TOL:
        return f"max deviation {dev:.3e} from reference > {REFERENCE_TOL:.0e}"
    return None


def check_invariants(header, data) -> str | None:
    """Physical bounds every per-atom channel set must satisfy."""
    import numpy as np
    if list(header) != ["T", *ATOM_CHANNELS]:
        return f"header {header} != {['T', *ATOM_CHANNELS]}"
    if data.shape != (SWEEP_STEPS, len(header)):
        return f"shape {data.shape} != {(SWEEP_STEPS, len(header))}"
    if not np.all(np.isfinite(data)):
        return "non-finite value"
    col = {name: data[:, j] for j, name in enumerate(header)}
    for a in (1, 2):
        bloch = float(np.max(col[f"inv{a}"] ** 2 + col[f"sy{a}"] ** 2))
        if bloch > 1.0 + 1e-12:
            return f"inv{a}^2 + sy{a}^2 = {bloch!r} > 1 + 1e-12"
        if float(np.min(col[f"ex{a}"])) < -1e-12:
            return f"ex{a} below -1e-12"
        if float(np.min(col[f"eur{a}"])) < -1e-10:
            return f"eur{a} below -1e-10"
        g = col[f"gamma{a}"]
        if float(np.min(g)) < 0.0 or float(np.max(g)) > LN2 + 1e-12:
            return f"gamma{a} outside [0, ln 2]"
    return None


class Checker:
    """Validates op outputs: reference CSVs for the presets and for every
    op of the default-seed sweep, invariants for every sweep op, the PASS
    line for verify."""

    def __init__(self, workload: str, seed: int) -> None:
        self.presets = load_reference("presets") if workload == "presets" else None
        self.sweep = None
        if workload == "sweep" and seed == DEFAULT_SEED:
            self.sweep = load_reference("sweep")

    def preset(self, name: str, path) -> tuple[str | None, int]:
        header, data = read_table(path)
        err = compare_reference(header, data, self.presets[f"{name}_header"],
                                self.presets[name])
        return err, data.size

    def sweep_op(self, index: int, params, path) -> tuple[str | None, int]:
        header, data = read_table(path)
        err = check_invariants(header, data)
        if err is None and self.sweep is not None and index < len(self.sweep["params"]):
            ref_params = tuple(float(v) for v in self.sweep["params"][index])
            if ref_params != tuple(float(v) for v in params):
                return f"params {params} != reference {ref_params}", data.size
            err = compare_reference(header, data, self.sweep["header"],
                                    self.sweep["data"][index])
        return err, data.size

    @staticmethod
    def verify(stdout: str) -> tuple[str | None, int]:
        for line in stdout.splitlines():
            if line.startswith("verify PASS"):
                samples = int(line.rsplit(",", 1)[1].split()[0])
                return None, 2 * samples
        return f"no 'verify PASS' line in {stdout.strip()!r}", 0


# ---------------------------------------------------------------- running

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cap_blas_threads(nproc: int) -> int:
    """Cap BLAS/OpenMP threads at nproc, here and in every child."""
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return min(int(os.environ[v]) for v in BLAS_THREAD_VARS)


def calibration_kernel() -> float:
    """A fixed single-threaded mix of the two kinds of work tjcm does:
    interpreted scalar loops (as in the block spectrum and channel assembly)
    and vectorised numpy transcendentals (as in the time evolution)."""
    import numpy as np
    acc = 0.0
    for i in range(10000):
        acc += (i % 7) * 0.5 - acc * 1e-3
    z = np.linspace(0.0, 1.0, 20000)
    for _ in range(10):
        z = np.abs(np.exp(1j * z)) * z
    return acc + float(z[-1])


def calibrate() -> float:
    """Seconds for calibration_kernel(), best of CAL_REPEATS.  The host's
    speed drifts by tens of percent over seconds to minutes (other tenants
    share its cores); see ``at_reference_speed``."""
    best = math.inf
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(wall: float, cal: float, exponent: float) -> float:
    """An op's wall time scaled to the reference host speed, given the mean
    of calibrate() right before and right after the op."""
    return wall * (CAL_REF_S / cal) ** exponent


def run_child(cmd: list[str], stem: Path) -> tuple[float, int, str, str]:
    """Run one op in a fresh process; returns (wall s, exit code, out, err).

    An op that outlives OP_TIMEOUT_S is killed (exit code -9).  The wait
    blocks instead of passing a timeout to ``Popen.wait``, which polls in
    steps of up to 50 ms and would round every op time up to that grain.
    """
    out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
            killer.join()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    return (wall, code, out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"))


def measure_setup() -> dict:
    """Median fresh-interpreter ``import tjcm`` time over SETUP_PROBES
    interpreters, after one untimed import that fills the bytecode cache,
    each scaled to the reference speed by calibrations just before and after
    it."""
    times, modules = [], []
    for i in range(SETUP_PROBES + 1):
        cal = calibrate()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        cal = (cal + calibrate()) / 2
        if proc.returncode != 0:
            raise BenchError(f"import tjcm failed: {proc.stderr.strip()}")
        seconds, count, where = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(where).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"import tjcm found {where}, not the source tree {SRC}")
        if i:
            times.append(at_reference_speed(seconds, cal, CAL_EXPONENT_SETUP))
            modules.append(count)
    return {"setup_s": statistics.median(times), "import.modules": max(modules),
            "samples": times}


class Run:
    """Op loop of one workload: passes over its distinct ops, timing each
    op, checking its output and, in a traced run, collecting its spans."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = work
        self.check = Checker(workload, seed)
        if workload == "presets":
            self.inputs = list(PRESETS)
        elif workload == "verify":
            self.inputs = list(VERIFY_SETS)
        else:
            self.inputs = sweep_params(seed)
        self.ops: list[dict] = []
        self.spans: list[list] = []
        self.bodies: dict[int, float] = {}
        self.passes = 0

    def key(self, k: int) -> str:
        """Name of input k, the same in every pass."""
        if self.workload == "sweep":
            alpha, g, l = self.inputs[k]
            return f"alpha={alpha!r},g={g!r},l={l}"
        return self.inputs[k]

    def _add_spans(self, spans: list[list]) -> None:
        base = len(self.spans)  # span ids restart in every child process
        for s in spans:
            s[0] += base
            s[1] = None if s[1] is None else s[1] + base
        self.spans.extend(spans)

    def _record(self, op, k, traced, wall, cal, error, work) -> dict:
        """``seconds`` is the op's wall time at the reference speed."""
        rec = {"op": op, "input": self.key(k), "traced": traced,
               "seconds": at_reference_speed(wall, cal, CAL_EXPONENT[self.workload]),
               "wall": wall, "cal": cal,
               "work": work, "error": error}
        self.ops.append(rec)
        return rec

    # Each op method runs one op and returns (record, output), where the
    # output is what the byte-identity check of a traced run compares.

    def _cli_op(self, args: list[str], traced: bool, op: int):
        stem = self.work / f"op{op}"
        spans_path = stem.with_suffix(".spans.json")
        cmd = (TRACED_CLI + [str(spans_path), str(op)] if traced else CLI) + args
        cal = calibrate()
        wall, code, out, err = run_child(cmd, stem)
        cal = (cal + calibrate()) / 2
        if traced and spans_path.exists():
            dump = json.loads(spans_path.read_text())
            self._add_spans(dump["spans"])
            self.bodies[op] = dump["body_s"]
        if code != 0:
            return wall, cal, f"exit code {code}: {err.strip()[-500:]}", out
        return wall, cal, None, out

    def op_preset(self, k: int, traced: bool, op: int):
        name = self.inputs[k]
        csv = self.work / f"op{op}.csv"
        wall, cal, error, _ = self._cli_op(["preset", name, "--out", str(csv)], traced, op)
        cells = 0
        if error is None:
            error, cells = self.check.preset(name, csv)
        return self._record(op, k, traced, wall, cal, error, cells), csv

    def op_verify(self, k: int, traced: bool, op: int):
        alpha, g, l = VERIFY_SETS[self.inputs[k]]
        args = ["verify", "--alpha", repr(alpha), "--g", repr(g), "--l", str(l),
                "--samples", str(VERIFY_SAMPLES), "--tmax", repr(VERIFY_T_MAX)]
        wall, cal, error, out = self._cli_op(args, traced, op)
        work = 0
        if error is None:
            error, work = self.check.verify(out)
        return self._record(op, k, traced, wall, cal, error, work), out

    def sweep_pass(self, tasks: list[tuple[int, bool]], first_op: int) -> list:
        """Run a pass of sweep ops in one fresh worker process."""
        jobs = [{"op": first_op + j, "params": list(self.inputs[k]), "traced": traced,
                 "out": str(self.work / f"op{first_op + j}.csv")}
                for j, (k, traced) in enumerate(tasks)]
        job, result = self.work / "job.json", self.work / "result.json"
        job.write_text(json.dumps({"trace": self.trace, "ops": jobs}))
        wall, code, _, err = run_child(SWEEP_WORKER + [str(job), str(result)],
                                       self.work / "worker")
        if code == 0 and result.exists():
            res = json.loads(result.read_text())
            self._add_spans(res["spans"])
        else:
            error = f"sweep worker exit code {code}: {err.strip()[-500:]}"
            res = {"seconds": [wall / len(jobs)] * len(jobs), "cals": [CAL_REF_S] * len(jobs),
                   "errors": [error] * len(jobs)}
        out = []
        for (k, traced), spec, secs, cal, error in zip(
                tasks, jobs, res["seconds"], res["cals"], res["errors"]):
            csv = Path(spec["out"])
            if traced:
                self.bodies[spec["op"]] = secs
            cells = 0
            if error is None:
                error, cells = self.check.sweep_op(k, self.inputs[k], csv)
            out.append((self._record(spec["op"], k, traced, secs, cal, error, cells), csv))
        return out

    def run_pass(self, batch: list[int]) -> None:
        """Run every input of ``batch`` once (twice in a traced run,
        alternating which side goes first so warm caches favour neither)."""
        tasks = []
        for j, k in enumerate(batch):
            order = ((True, False) if j % 2 else (False, True)) if self.trace else (False,)
            tasks += [(k, traced) for traced in order]
        first_op = len(self.ops)
        if self.workload == "sweep":
            results = self.sweep_pass(tasks, first_op)
        else:
            op_fn = self.op_preset if self.workload == "presets" else self.op_verify
            results = [op_fn(k, traced, first_op + j) for j, (k, traced) in enumerate(tasks)]
        if self.trace:
            for a, b in zip(results[0::2], results[1::2]):
                self._compare_outputs(*((a, b) if not a[0]["traced"] else (b, a)))
        self._clean()
        self.passes += 1

    def execute(self) -> float:
        """Run whole passes, at least one, while the next pass is expected
        (from the last one) to end within ``seconds``; returns wall s."""
        t0 = time.perf_counter()
        for batch in shuffled_passes(self.seed, range(len(self.inputs))):
            t_pass = time.perf_counter()
            self.run_pass(batch)
            now = time.perf_counter()
            if (now - t0) + (now - t_pass) > self.seconds:
                break
        return time.perf_counter() - t0

    def _compare_outputs(self, untraced, traced) -> None:
        (rec_u, out_u), (rec_t, out_t) = untraced, traced
        if rec_u["error"] or rec_t["error"]:
            return
        same = (filecmp.cmp(out_u, out_t, shallow=False) if isinstance(out_u, Path)
                else out_u == out_t)
        if not same:
            rec_t["error"] = f"traced output differs from untraced op {rec_u['op']}"

    def _clean(self) -> None:
        for path in self.work.iterdir():
            path.unlink()


# ---------------------------------------------------------------- metrics

def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND values beyond it, as
    (value, percentile, values beyond).  With too few values, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def per_input(ops: list[dict]) -> dict[str, tuple[float, int]]:
    """Each input's median time over the run's ops, and its work; work
    counts only from ops that passed their check."""
    times: dict[str, list[float]] = {}
    work: dict[str, int] = {}
    for r in ops:
        times.setdefault(r["input"], []).append(r["seconds"])
        work[r["input"]] = max(work.get(r["input"], 0), 0 if r["error"] else r["work"])
    return {k: (statistics.median(v), work[k]) for k, v in times.items()}


def end_to_end(run: Run, setup: dict) -> tuple[dict, dict]:
    med = per_input(run.ops)
    times = [seconds for seconds, _ in med.values()]
    tail_value, tail_pct, beyond = tail([r["seconds"] for r in run.ops])
    values = {
        "setup_s": setup["setup_s"],
        "op_p50_s": statistics.median(r["seconds"] for r in run.ops),
        "op_tail_s": tail_value,
        "work_per_s": sum(work for _, work in med.values()) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    extra = {"op_tail_percentile": tail_pct, "ops_beyond_tail": beyond,
             "distinct_ops": len(times), "passes": run.passes, "ops": len(run.ops),
             "wall_op_p50_s": statistics.median(r["wall"] for r in run.ops),
             "calibration_s": statistics.median(r["cal"] for r in run.ops)}
    return values, extra


def per_layer(run: Run, setup: dict) -> tuple[dict, dict]:
    import spans
    n = sum(1 for r in run.ops if r["traced"])
    totals = spans.layer_totals(run.spans)
    values = {}
    for name in PER_LAYER:
        values[name] = totals.get(name, 0.0)
        if PER_LAYER[name].endswith("/op"):
            values[name] /= n
    values["import.modules"] = setup["import.modules"]
    values["trace.overhead_s"] = (
        statistics.median(r["seconds"] for r in run.ops if r["traced"])
        - statistics.median(r["seconds"] for r in run.ops if not r["traced"]))
    values["trace.coverage"] = totals.get("top_s", 0.0) / sum(run.bodies.values())
    return values, {"traced_ops": n, "passes": run.passes}


def environment(seed: int, thread_cap: int, nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except FileNotFoundError:
        pass
    return {
        "nproc": nproc,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "thread_cap": thread_cap},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "seed": seed,
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tjcm" / "__init__.py").is_file():
        print(f"benchmark: no tjcm source tree at {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    thread_cap = cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        setup = measure_setup()
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
        wall = run.execute()
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, extra = per_layer(run, setup)
        units = PER_LAYER
    else:
        values, extra = end_to_end(run, setup)
        units = END_TO_END
    failed = sum(1 for r in run.ops if r["error"])
    attempted = len(run.ops)
    for rec in run.ops:
        if rec["error"]:
            print(f"FAILED op {rec['op']} ({rec['input']}): {rec['error']}", file=sys.stderr)

    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "wall_s": wall, "environment": environment(args.seed, thread_cap, nproc),
        "metrics": metrics,
        "failed_ratio": failed / attempted, "extra": extra,
        "setup_samples_s": setup["samples"], "ops": run.ops,
    }
    stem.with_suffix(".json").write_text(json.dumps(results, indent=1))
    if args.trace:
        stem.with_suffix(".spans.json").write_text(json.dumps(run.spans))

    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, "
          f"failed_ratio {failed / attempted:g}, {wall:.1f} s")
    for k, v in values.items():
        print(f"  {k:24s} {v:.6g} {units[k]}")
    for k, v in extra.items():
        print(f"  {k:24s} {v:g}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
