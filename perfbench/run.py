"""Benchmark of the charsum command-line tool, run the way a user runs it.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a charsum source tree (the package is imported
from ./src; nothing is installed).  A workload is a fixed list of CLI
invocations.  They run one at a time, each in a fresh Python process, so
no in-process cache (the field_core.context lru_cache, walsh._FVAL_CACHE)
carries over from one invocation to the next.  Every output is checked:
verify-all by its verdict lines, every other command by the SHA-256 of
its stdout, recorded below.

--trace 0 (end to end): one untimed warm-up invocation, then passes over
the workload's invocations until --seconds is used up (at least one),
then set-up replays (see SETUP_REPLAY_SECONDS): fresh processes per
invocation that repeat only its set-up.  Reports, as medians over the passes:
    wall_s       seconds from process start to exit, summed over the pass
    setup_s      seconds importing charsum plus seconds inside
                 field_core.build_context, summed over the pass (median
                 over the passes and the replays)
    peak_rss_mb  the largest ru_maxrss of any invocation of the pass
and prints fail_ratio = failed / attempted invocations.

--trace 1 (per layer): the warm-up, one untraced pass and one traced
pass, in which every public function of the package modules records a
span (see child.py).  Reports the per-layer metrics listed in
perfbench/README.md and trace.overhead_ratio = traced wall / untraced
wall - 1.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --workload all runs every workload and
ends with one JSON object keyed by workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
sys.path.insert(0, str(HERE))

from spans import (  # noqa: E402
    Span, calls, calls_per_key, layer_self_seconds, total_seconds, total_work)

DEFAULT_SEED = 20260809  # the CLI's own default
# Set-up is replayed at least once, and until this many seconds are spent:
# the cheap set-ups (about 0.15 s) get enough samples for a steady median
# without making the expensive one (about 4 s on scan-31-1) cost more.
SETUP_REPLAY_SECONDS = 2.0
MIB = 1 << 20
VERIFY_CHECKS = 12

# The hosts this runs on share their cores with other tenants, and their
# clock moves between states about 1.35x apart within seconds to minutes;
# one run's raw wall time swings with it (IQR/median 19-27% over eight to
# ten runs of verify-3-2).  So while each child runs, the benchmark times a
# fixed pure-Python loop on the other core every PROBE_INTERVAL seconds
# (about 1.5% of that core) and multiplies the child's times by the mean
# of REFERENCE_PROBE_S / probe time over the run: the time the run would
# take at the reference speed.  On eight runs that cut the spread from
# 19% to 4.5%; over sets of ten seeds it measured 3-10%.
PROBE_LOOPS = 20_000
PROBE_INTERVAL = 0.1
REFERENCE_PROBE_S = 1.5e-3  # one probe on a 2-vCPU x86-64 VM in its fast clock state


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    sha256: str | None = None  # reference stdout digest; None for verify-all


@dataclass(frozen=True)
class Workload:
    warmup: tuple  # a small invocation that loads the same modules and files
    invocations: tuple


# Only verify-all takes the seed.  The export and scan commands use no
# randomness, so their stdout is the same for every seed and is checked
# against the digest recorded here.  BENCHMARK.json lists verify-3-2 and
# export-3-2 only, so that a full set of twenty-odd runs per listed
# workload stays under an hour on a 2-vCPU host (see README.md).
WORKLOADS = {
    "verify-3-2": Workload(
        warmup=("verify-all", "--p", "3", "--k", "1", "--b", "g^1"),
        invocations=(
            Invocation(("verify-all", "--p", "3", "--k", "2", "--b", "g^1",
                        "--seed", "{seed}")),
        )),
    "export-3-2": Workload(
        warmup=("expsum-sweep", "--p", "3", "--k", "1", "--b", "g^1"),
        invocations=(
            Invocation(("expsum-sweep", "--p", "3", "--k", "2", "--b", "g^1"),
                       "6a881af741082dbe27ab4d913b556817b2e9d0f90d2782b8bb18580275af4ef8"),
            Invocation(("walsh-spectrum", "--p", "3", "--k", "2", "--a", "g^0", "--b", "g^0"),
                       "0ae8f1626a523ce9aab8b7481ece5a5c96990412cf7b44f8a170e890171c6954"),
            Invocation(("sequences-crosscorr", "--p", "3", "--k", "2"),
                       "9e1beea5128fe84742424dc2b3b414709d947ad2bd5ec9db67c1ead6a64444e7"),
        )),
    "scan-31-1": Workload(
        warmup=("jacobsthal-scan", "--p", "3", "--k", "1"),
        invocations=(
            Invocation(("jacobsthal-scan", "--p", "31", "--k", "1"),
                       "5e95006adadeb97af271e8a2a4822b24571854839414cdd606cd7ef6a88d4472"),
            Invocation(("cyclotomy-table", "--p", "31", "--k", "1"),
                       "cf79705cecf5d9e87fc145a807b6e81484debbb37d55e9e6e5fbfb67f913d2a6"),
            Invocation(("pt-sums", "--p", "31", "--k", "1"),
                       "122300ae2fc994d6e5e54ee267135e0b080d457f4131e7bf10115a5cea9ba943"),
        )),
}


@dataclass
class Outcome:
    wall_s: float  # raw seconds from process start to exit
    scale: float   # mean reference-speed seconds per raw second over the process
    rss_mib: float
    rc: int
    stdout: bytes
    record: dict  # what child.py wrote; empty if it wrote nothing

    @property
    def setup_s(self) -> float:
        return (self.record.get("import_s", 0.0) + self.record.get("build_s", 0.0)) * self.scale


def probe_seconds() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def sample_speed(samples: list, stop: threading.Event) -> None:
    samples.append(probe_seconds())
    while not stop.wait(PROBE_INTERVAL):
        samples.append(probe_seconds())


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CHARSUM_THREADS", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Runner:
    """Starts child processes one at a time, with files in a scratch directory."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = child_env()
        self.count = 0

    def invoke(self, args: list) -> Outcome:
        self.count += 1
        base = self.tmp / str(self.count)
        record = base.with_suffix(".json")
        cmd = [sys.executable, str(CHILD), "--record", str(record)] + args
        with open(base.with_suffix(".out"), "w+b") as out, \
                open(base.with_suffix(".err"), "w+b") as err:
            samples, stop = [], threading.Event()
            prober = threading.Thread(target=sample_speed, args=(samples, stop))
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            prober.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                stop.set()
                prober.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
            err.seek(0)
            stderr = err.read()
        if proc.returncode != 0:
            sys.stderr.write(f"exit {proc.returncode}: {' '.join(args)}\n"
                             + stderr.decode(errors="replace")[-2000:])
        try:
            rec = json.loads(record.read_text())
        except (OSError, ValueError):
            rec = {}
        scale = statistics.fmean(REFERENCE_PROBE_S / t for t in samples)
        return Outcome(wall, scale, usage.ru_maxrss * 1024 / MIB, proc.returncode, stdout, rec)


def output_ok(inv: Invocation, out: Outcome, seed: int) -> bool:
    if out.rc != 0 or out.record.get("rc") != 0:
        return False
    if inv.sha256 is not None:
        return hashlib.sha256(out.stdout).hexdigest() == inv.sha256
    lines = out.stdout.decode(errors="replace").splitlines()
    return (len(lines) == VERIFY_CHECKS + 2
            and lines[0].startswith("charsum verify-all ")
            and f" seed={seed} " in lines[0]
            and all(ln.startswith("[ok  ] ") for ln in lines[1:-1])
            and lines[-1] == "all identities verified")


class PassResult:
    def __init__(self, outcomes: list, oks: list):
        self.outcomes = outcomes
        self.raw_wall_s = sum(o.wall_s for o in outcomes)
        self.wall_s = sum(o.wall_s * o.scale for o in outcomes)
        self.rss_mib = max(o.rss_mib for o in outcomes)
        self.setup_s = sum(o.setup_s for o in outcomes)
        self.failed = oks.count(False)


def run_pass(runner: Runner, wl: Workload, seed: int, trace_prefix: str | None) -> PassResult:
    outcomes, oks = [], []
    for i, inv in enumerate(wl.invocations):
        argv = [a.format(seed=seed) for a in inv.argv]
        flags = ["--trace", f"{trace_prefix}{i}"] if trace_prefix else []
        out = runner.invoke(flags + ["--"] + argv)
        outcomes.append(out)
        oks.append(output_ok(inv, out, seed))
    return PassResult(outcomes, oks)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, wl: Workload, seed: int, seconds: float) -> tuple:
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(runner, wl, seed, None))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    clean = [p for p in passes if not p.failed] or passes
    setups = [p.setup_s for p in clean]
    builds = [json.dumps(o.record.get("builds", [])) for o in clean[0].outcomes]
    replays = replay_failed = 0
    t0 = time.perf_counter()
    while replays == 0 or time.perf_counter() - t0 < SETUP_REPLAY_SECONDS:
        replays += 1
        total = 0.0
        for b in builds:
            out = runner.invoke(["--setup-only", b])
            replay_failed += out.rc != 0
            total += out.setup_s
        setups.append(total)
    invoked = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "wall_s": metric(statistics.median(p.wall_s for p in clean), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(p.rss_mib for p in clean), "MiB"),
    }
    lines = [f"{len(passes)} pass(es) of {len(wl.invocations)} invocation(s), "
             f"{replays} set-up replay(s)"]
    lines += [f"{k:<12} {v['value']:.4f} {v['unit']}" for k, v in metrics.items()]
    raw = statistics.median(p.raw_wall_s for p in clean)
    lines.append(f"{'raw wall_s':<12} {raw:.4f} s (before scaling to the reference speed)")
    lines.append(f"{'fail_ratio':<12} {failed / invoked:.4f} ({failed}/{invoked} invocations)")
    return invoked + replays * len(builds), failed + replay_failed, metrics, lines


def per_layer(runner: Runner, wl: Workload, seed: int) -> tuple:
    plain = run_pass(runner, wl, seed, None)
    traced = run_pass(runner, wl, seed, "t")
    spans = [Span(o.record["run"], sid, parent, name, t0 * o.scale, t1 * o.scale, key, work)
             for o in traced.outcomes if "spans" in o.record
             for sid, parent, name, t0, t1, key, work in o.record["spans"]]
    self_s = layer_self_seconds(spans)
    m = {
        "field_core.build_s": metric(total_seconds(spans, "field_core.build_context"), "s"),
        "field_core.tables_mb": metric(total_work(spans, "field_core.build_context") / MIB, "MiB"),
        "field_core.add_enc_bulk.calls": metric(calls(spans, "field_core.add_enc_bulk"), "count"),
        "field_core.add_enc_bulk.elems": metric(total_work(spans, "field_core.add_enc_bulk"), "count"),
        "field_core.add_enc_bulk.s": metric(total_seconds(spans, "field_core.add_enc_bulk"), "s"),
        "cycint.self_s": metric(self_s.get("cycint", 0.0), "s"),
        "cycint.from_counts.calls": metric(calls(spans, "cycint.from_counts"), "count"),
        "cyclotomy.self_s": metric(self_s.get("cyclotomy", 0.0), "s"),
        "jacobsthal.self_s": metric(self_s.get("jacobsthal", 0.0), "s"),
        "jacobsthal.H_sum.calls": metric(calls(spans, "jacobsthal.H_sum"), "count"),
        "jacobsthal.I_sum.calls": metric(calls(spans, "jacobsthal.I_sum"), "count"),
        "jacobsthal.theorem2_scan.calls": metric(calls(spans, "jacobsthal.theorem2_scan"), "count"),
        "expsum.self_s": metric(self_s.get("expsum", 0.0), "s"),
        "expsum.N_count.calls": metric(calls(spans, "expsum.N_count"), "count"),
        "expsum.N_count.s": metric(total_seconds(spans, "expsum.N_count"), "s"),
        "expsum.N_count.per_pair": metric(calls_per_key(spans, "expsum.N_count"), "calls/pair"),
        "expsum.classify.calls": metric(calls(spans, "expsum.classify"), "count"),
        "expsum.classify.per_pair": metric(calls_per_key(spans, "expsum.classify"), "calls/pair"),
        "expsum.jacobsthal_pairs.calls": metric(calls(spans, "expsum.jacobsthal_pairs"), "count"),
        "expsum.distribution_sweep.s": metric(total_seconds(spans, "expsum.distribution_sweep"), "s"),
        "walsh.self_s": metric(self_s.get("walsh", 0.0), "s"),
        "walsh.walsh_coeff.calls": metric(calls(spans, "walsh.walsh_coeff"), "count"),
        "walsh.walsh_coeff.per_point": metric(calls_per_key(spans, "walsh.walsh_coeff"), "calls/point"),
        "walsh.theorem1_verify.s": metric(total_seconds(spans, "walsh.theorem1_verify"), "s"),
        "sequences.self_s": metric(self_s.get("sequences", 0.0), "s"),
        "sequences.cross_correlation.calls": metric(calls(spans, "sequences.cross_correlation"), "count"),
        "cli.self_s": metric(self_s.get("cli", 0.0), "s"),
        "cli.stdout_mb": metric(sum(len(o.stdout) for o in traced.outcomes) / MIB, "MiB"),
        "trace.overhead_ratio": metric(traced.wall_s / plain.wall_s - 1, "ratio"),
    }
    attempted = len(plain.outcomes) + len(traced.outcomes)
    failed = plain.failed + traced.failed
    lines = [f"1 untraced and 1 traced pass of {len(wl.invocations)} invocation(s), "
             f"{len(spans)} spans"]
    lines += [f"{k:<34} {v['value']:.6g} {v['unit']}" for k, v in m.items()]
    return attempted, failed, m, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        runner.invoke(["--"] + list(wl.warmup))
        if trace:
            attempted, failed, metrics, lines = per_layer(runner, wl, seed)
        else:
            attempted, failed, metrics, lines = end_to_end(runner, wl, seed, seconds)
    print(f"workload {name}  seed {seed}  " + lines[0])
    for ln in lines[1:]:
        print("  " + ln)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)
    if not (ROOT / "src" / "charsum" / "cli.py").is_file():
        print(f"error: no charsum source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if opts.workload == "all" else [opts.workload]
    results = {n: run_workload(n, opts.seed, opts.seconds, bool(opts.trace)) for n in names}
    print(json.dumps(results if opts.workload == "all" else results[opts.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
