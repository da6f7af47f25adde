"""Certified-verdict time of `geu compute` on seeded problem files.

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Each run draws problem documents from its seed, writes them as problem
files, and runs the `geu compute` path in-process on each one: the CLI
reads the file (``problemfile.load_problem``), computes and certifies the
report (``report.run_problem``) and emits its ``sort_keys`` JSON
(``cli._emit``).  Rounds of documents run until the timed calls add up to
``--seconds``.  Every emitted report then goes through the benchmark's own
output check, untimed (see ``check.py``).  The host's speed swings with
other tenants' load, so a probe loop timed on a 0.2 s timer measures it
throughout the timed phase, and each call's time is rescaled to a nominal
host speed (``HostClock``); the wall-clock figures are printed as well.
Once per run a fixed reference corpus is compared with digests recorded on
the seed commit, and the worked example with ``geu.worked.GOLDEN``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays the same
documents twice more: once with spans around the package's public functions
(``spans.py``), and once, over a fixed prefix, counting ``GaussScalar``
operations.  It prints the per-layer metrics and writes the span table to
``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
# Rounds of the reference corpus are drawn from this seed, never from --seed.
REFERENCE_SEED = "reference"
# Launches of a fresh interpreter for setup_s, spread over the timed phase so
# that their median does not hang on the host's speed in one moment.
SETUP_LAUNCHES = 11
# The host's speed swings by up to 1.7x, in spells of seconds to minutes, as
# other tenants come and go.  So a probe, a fixed pure-Python Fraction loop
# like the program's own work, is timed every PROBE_EVERY_S of the timed
# phase, also in the middle of a call, and each call's time is rescaled to
# a host on which the probe takes NOMINAL_PROBE_S (about this loop on an
# unloaded 2 GHz Xeon).
NOMINAL_PROBE_S = 0.015
PROBE_EVERY_S = 0.2


@dataclass(frozen=True)
class Workload:
    compute_args: tuple[str, ...]
    reference_problems: int  # size of the fixed reference corpus
    count_problems: int  # prefix replayed by the scalar counting pass


WORKLOADS = {
    "sweep_small": Workload((), reference_problems=21, count_problems=28),
    "float_large": Workload(("--mode", "float"), reference_problems=2,
                            count_problems=2),
}

# Spans reported as per-layer metrics: (span name, statistic).
LAYER_METRICS = (
    ("problemfile.load_problem", "total_s"),
    ("problemfile.load_problem", "self_s"),
    ("problemfile.parse_problem", "total_s"),
    ("problemfile.parse_problem", "self_s"),
    ("scalars.parse_scalar", "total_s"),
    ("scalars.parse_scalar", "calls"),
    ("model.validate_spec", "total_s"),
    ("linalg.det", "self_s"),
    ("report.run_problem", "total_s"),
    ("report.run_problem", "self_s"),
    ("report.emit", "total_s"),
    ("scalars.encode_scalar", "total_s"),
    ("perturb.update_char_factor", "total_s"),
    ("perturb.updated_char_poly", "total_s"),
    ("perturb.changed_eigenvalue_bound", "total_s"),
    ("linalg.conj_dot", "total_s"),
    ("linalg.conj_dot", "calls"),
    ("model.chain_vector", "total_s"),
    ("poly.poly_roots", "total_s"),
    ("poly.poly_roots", "calls"),
    ("chains.same_block_chain", "total_s"),
    ("chains.other_block_chain", "total_s"),
    ("chains.distinct_eig_chain", "total_s"),
    ("oracle.apply_update", "total_s"),
    ("model.assemble_matrix", "total_s"),
    ("linalg.inverse", "total_s"),
    ("linalg.inverse", "self_s"),
    ("linalg.rref", "self_s"),
    ("oracle.verify_chain", "total_s"),
    ("oracle.generalized_rank", "total_s"),
    ("oracle.generalized_rank", "calls"),
    ("oracle.char_poly_direct", "total_s"),
    ("oracle.char_poly_direct", "calls"),
    ("oracle.jordan_structure", "total_s"),
    ("oracle.jordan_structure", "calls"),
    ("linalg.mat_mul", "self_s"),
    ("linalg.mat_mul", "calls"),
    ("linalg.rank", "self_s"),
    ("linalg.mat_vec", "self_s"),
    ("report.run_problem_float", "total_s"),
    ("floatmode.FloatProblem", "total_s"),
    ("floatmode.float_new_eigenvalues", "total_s"),
    ("floatmode.chain_residual", "total_s"),
    ("floatmode.same_block_chain_float", "total_s"),
    ("floatmode.other_block_chain_float", "total_s"),
    ("floatmode.distinct_eig_chain_float", "total_s"),
)

UNITS = {"total_s": "s", "self_s": "s", "calls": "count"}


def load_package():
    """Import geu from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "geu" / "__init__.py").is_file():
        print(f"error: no geu package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import geu.cli  # noqa: F401  (loads every module the CLI uses)

    if Path(geu.cli.__file__).resolve().parent != SRC / "geu":
        print(f"error: imported geu from {geu.cli.__file__}", file=sys.stderr)
        sys.exit(2)
    return geu


def compute(cli, path: Path, args: tuple[str, ...]) -> tuple[int, str]:
    """`geu compute PATH ARGS` in-process: exit code and emitted report."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["compute", str(path), *args])
    return code, buf.getvalue()


def replay(cli, path: Path, args: tuple[str, ...]) -> None:
    """`compute` for the traced and counting passes.

    A problem that raises was already counted as failed by the timed phase.
    """
    try:
        compute(cli, path, args)
    except Exception:
        pass


def problem_failures(check, doc: dict, code: int, text: str) -> list[str]:
    """Why one `geu compute` result is wrong; empty when it is right."""
    try:
        rep = json.loads(text)
    except ValueError:
        return [f"exit code {code}, no JSON report"]
    try:
        bad = check.check_report(doc, rep)
    except Exception as exc:  # a report without the expected fields
        bad = [f"report not as expected: {exc!r}"]
    if code != 0:
        bad.append(f"exit code {code}")
    return bad


def calibration_slice() -> float:
    """Seconds for a fixed pure-Python Fraction loop."""
    t0 = perf_counter()
    for k in range(1, 2001):
        q = Fraction(k % 97 + 1, k % 89 + 2)
        q = q * q - q / 3 + Fraction(1, 7)
    return perf_counter() - t0


class HostClock:
    """Probes of the host's speed on a wall-clock timer.

    The probe runs in a SIGALRM handler, so it also samples the host in the
    middle of a long call; a timed call subtracts the probes it contains.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.probes: list[float] = []  # seconds each probe took

    def probe(self, *_) -> None:
        self.starts.append(perf_counter())
        self.probes.append(calibration_slice())

    def __enter__(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def around(self, t0: float, t1: float) -> tuple[int, int]:
        """The last probe to start before t0, and the first after t1."""
        return (bisect.bisect_right(self.starts, t0) - 1,
                bisect.bisect_left(self.starts, t1))

    def probing(self, t0: float, t1: float) -> float:
        """Seconds of probes run between t0 and t1."""
        first, last = self.around(t0, t1)
        return sum(self.probes[first + 1:last])

    def rescale(self, seconds: float, t0: float, t1: float) -> float:
        """Seconds of work timed from t0 to t1, on the nominal host."""
        first, last = self.around(t0, t1)
        speed = statistics.fmean(self.probes[first:last + 1])
        return seconds * NOMINAL_PROBE_S / speed


def launch_setup() -> None:
    """A fresh interpreter that imports geu.cli, as every `geu` call starts.

    Its time is not rescaled: launching and importing slows far less than
    the probe when the host is loaded, so rescaling would overcorrect.
    """
    subprocess.run([sys.executable, "-c", "import geu.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                   check=True)


class Run:
    """Problem files of one run, and what became of each."""

    def __init__(self, geu, check, workload: Workload, workdir: Path,
                 setup_launches: int = 0):
        self.cli = geu.cli
        self.check = check
        self.workload = workload
        self.workdir = workdir
        # documents live on disk only, so the benchmark's own memory does
        # not grow with the number of problems and peak_rss_mb is the
        # program's working set plus one round of documents
        self.paths: list[Path] = []
        self.round_ends: list[int] = []  # problem count after each round
        self.times: list[float] = []  # wall seconds per call, less probes
        self.failures: list[tuple[int, list[str]]] = []
        self.clock = HostClock()
        self.spans: list[tuple[float, float]] = []  # per call, start and end
        self.setup_launches = setup_launches
        self.setup_times: list[float] = []

    def add(self, doc: dict) -> Path:
        path = self.workdir / f"p{len(self.paths):05d}.json"
        path.write_text(json.dumps(doc))
        self.paths.append(path)
        return path

    def timed_phase(self, rounds, seconds: float) -> None:
        with self.clock:
            self._timed_rounds(rounds, seconds)

    def _timed_rounds(self, rounds, seconds: float) -> None:
        while not self.times or sum(self.times) < seconds:
            for doc in next(rounds):
                index = len(self.paths)
                path = self.add(doc)
                t0 = perf_counter()
                try:
                    code, text = compute(self.cli, path,
                                         self.workload.compute_args)
                except Exception as exc:  # a raising problem is a failure
                    code, text = None, repr(exc)
                t1 = perf_counter()
                self.spans.append((t0, t1))
                self.times.append(t1 - t0 - self.clock.probing(t0, t1))
                share = min(1.0, sum(self.times) / seconds) if seconds else 1
                while len(self.setup_times) < self.setup_launches * share:
                    self.time_setup()
                if code is None:
                    self.failures.append((index, [text]))
                    continue
                bad = problem_failures(self.check, doc, code, text)
                if bad:
                    self.failures.append((index, bad))
            self.round_ends.append(len(self.paths))

    def time_setup(self) -> None:
        t0 = perf_counter()
        launch_setup()
        t1 = perf_counter()
        self.setup_times.append(t1 - t0 - self.clock.probing(t0, t1))

    def rescaled_times(self) -> list[float]:
        """Each call's time on the nominal host, from the probes around it."""
        return [self.clock.rescale(dt, *span)
                for dt, span in zip(self.times, self.spans)]


def reference_documents(gen, workload_name: str, workload: Workload):
    """The first problems of the workload's stream for REFERENCE_SEED."""
    docs = []
    for batch in gen.rounds(workload_name, REFERENCE_SEED):
        docs.extend(batch)
        if len(docs) >= workload.reference_problems:
            return docs[:workload.reference_problems]


def reference_failures(gen, check, cli, workload_name: str,
                       workload: Workload, workdir: Path) -> list[str]:
    """Compare the fixed reference corpus with its recorded digests."""
    want = json.loads(REFERENCE.read_text())[workload_name]
    docs = reference_documents(gen, workload_name, workload)
    if check.documents_digest(docs) != want["documents_sha256"]:
        return ["reference corpus documents differ from the recorded ones"]
    bad = []
    for i, (doc, ref) in enumerate(zip(docs, want["reports"])):
        path = workdir / f"ref{i:03d}.json"
        path.write_text(json.dumps(doc))
        try:
            code, text = compute(cli, path, workload.compute_args)
        except Exception as exc:
            bad.append(f"reference {i}: {exc!r}")
            continue
        problems = problem_failures(check, doc, code, text)
        if not problems:
            problems = check.compare_fingerprint(
                check.fingerprint(json.loads(text)), ref)
        bad.extend(f"reference {i}: {p}" for p in problems)
    return bad


def golden_failures(geu, check) -> list[str]:
    """`geu example` checked against ``geu.worked.GOLDEN``."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            geu.cli.main(["example"])
        return check.check_golden(json.loads(buf.getvalue()),
                                  geu.worked.GOLDEN)
    except Exception as exc:
        return [f"worked example: {exc!r}"]


def traced_pass(geu, spans, run: Run):
    """Replay the run's documents under spans; returns the tracer."""
    tracer = spans.Tracer()
    undo = spans.install_spans(tracer)
    traced = []
    try:
        for i, path in enumerate(run.paths):
            _, dt = tracer.root(
                "compute", i,
                lambda: replay(geu.cli, path, run.workload.compute_args))
            traced.append(dt)
    finally:
        spans.restore(undo)
    return tracer, traced


def counting_pass(geu, spans, run: Run) -> tuple[int, int, int]:
    """(ops, max_bits, problems) over the first count_problems problems."""
    count = min(run.workload.count_problems, len(run.paths))
    tally = [0, 0]
    undo = spans.install_op_counter(geu.scalars.GaussScalar, tally)
    try:
        for path in run.paths[:count]:
            replay(geu.cli, path, run.workload.compute_args)
    finally:
        spans.restore(undo)
    return tally[0], tally[1], count


def p95(times: list[float]) -> float:
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=20, method="inclusive")[18]


def layer_metrics(geu, spans, run: Run, calib_s: float) -> dict:
    tracer, traced = traced_pass(geu, spans, run)
    ops, max_bits, counted = counting_pass(geu, spans, run)
    summary = spans.summarize(tracer)
    fns = summary["functions"]
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{run.workdir.name}.json.gz")

    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0}
    metrics = {}
    for name, stat in LAYER_METRICS:
        metrics[f"{name}.{stat}"] = (fns.get(name, empty)[stat], UNITS[stat])
    tried = tracer.counts["poly.exact_tried"]
    split = tracer.counts["poly.exact_split"]
    constructions = [fns.get(n, empty) for n in spans.CHAIN_CONSTRUCTIONS]
    attempted = sum(b["calls"] for b in constructions)
    degenerate = sum(b["raised"] for b in constructions)
    untraced = sum(run.times)
    metrics.update({
        "poly.exact_split_ratio": (split / tried if tried else 1.0, "ratio"),
        "poly.exact_tried": (tried, "count"),
        "chains.degenerate_ratio": (
            degenerate / attempted if attempted else 0.0, "ratio"),
        "chains.cases_attempted": (attempted, "count"),
        "scalars.ops": (ops, "count"),
        "scalars.max_bits": (max_bits, "bits"),
        "scalars.ns_per_op": (
            1e9 * sum(run.times[:counted]) / ops if ops else 0.0, "ns"),
        "scalars.counted_problems": (counted, "count"),
        "trace.untraced_s": (untraced, "s"),
        "trace.traced_s": (sum(traced), "s"),
        "trace.overhead_s": (sum(traced) - untraced, "s"),
        "trace.coverage": (summary["coverage"], "ratio"),
        "trace.spans": (summary["spans"], "count"),
        "host.calib_s": (calib_s, "s"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    geu = load_package()
    import check
    import gen
    import spans

    import geu.worked  # noqa: F401

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-seed{args.seed}-", dir=OUT))
    try:
        if args.trace == 0:
            launch_setup()  # may byte-compile the package; users pay it once
        run = Run(geu, check, workload, workdir,
                  setup_launches=0 if args.trace else SETUP_LAUNCHES)
        run.timed_phase(gen.rounds(args.workload, args.seed), args.seconds)
        extra = golden_failures(geu, check)
        extra += reference_failures(gen, check, geu.cli, args.workload,
                                    workload, workdir)
        calib_s = statistics.median(run.clock.probes)
        if args.trace:
            metrics = layer_metrics(geu, spans, run, calib_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run.times)
    failed = len(run.failures)
    for index, reasons in run.failures[:10]:
        print(f"FAILED problem {index}: {'; '.join(reasons)}")
    for reason in extra:
        print(f"FAILED check: {reason}")
    if not args.trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times = run.rescaled_times()
        metrics = {
            "problems_per_s": (attempted / sum(times), "1/s"),
            "verdict_p50_s": (statistics.median(times), "s"),
            "verdict_p95_s": (p95(times), "s"),
            "setup_s": (statistics.median(run.setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        # failed_frac is 0 on a correct run, so it is printed here and
        # carried by `attempted`/`failed` in the result line
        print(f"failed_frac {failed / attempted:.6g} ratio")
        print(f"samples {attempted} problems in {len(run.round_ends)} rounds"
              f" ({sum(run.times):.3f} s timed); p95 rests on"
              f" {attempted - int(0.95 * attempted)} samples above it;"
              f" setup_s is the median of {len(run.setup_times)} launches")
        print(f"host.calib_s {calib_s:.6g} s (median of"
              f" {len(run.clock.probes)} probes; end-to-end times are"
              f" rescaled to a {NOMINAL_PROBE_S} s probe)")
        print(f"wall problems_per_s {attempted / sum(run.times):.6g} 1/s,"
              f" verdict_p50_s {statistics.median(run.times):.6g} s,"
              f" verdict_p95_s {p95(run.times):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and not extra,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
