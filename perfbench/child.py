"""Run one charsum CLI invocation in this fresh process and record it.

    python3 child.py --record OUT.json [--trace RUN_ID] -- ARGV...
    python3 child.py --record OUT.json --setup-only BUILDS_JSON

The CLI's stdout and stderr pass through untouched.  OUT.json receives
the exit code, the seconds spent importing charsum, the seconds inside
field_core.build_context and the arguments of every build.  With
--trace, every public function of the package modules is wrapped in a
span recorder instead, and the spans are written to OUT.json at exit.
--setup-only repeats just the set-up of an earlier invocation: the
import and the listed builds.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LAYERS = ("field_core", "cycint", "cyclotomy", "jacobsthal", "expsum",
          "walsh", "sequences", "cli")

# A public function left unwrapped because it evaluates one element:
# L_eval runs once per point of U in every N_count call, so, like the Elem
# operators, its time stays in the caller's self time.
UNWRAPPED = {"expsum.L_eval"}

TABLE_ATTRS = ("exp_enc", "log_enc", "trace_enc", "digits", "neg_enc")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _pair_key(pair) -> str:
    ctx = pair.a.ctx
    return f"{ctx.p}^{ctx.m}:{pair.a.enc},{pair.b.enc}"


def _bulk_elems(args, kwargs) -> int:
    import numpy as np
    return int(np.broadcast(_arg(args, kwargs, 1, "u"), _arg(args, kwargs, 2, "v")).size)


def _table_bytes(ctx) -> int:
    return sum(getattr(ctx, a).nbytes for a in TABLE_ATTRS if hasattr(ctx, a))


# qualified name -> fn(args, kwargs, result) -> (key, work)
PROBES = {
    "expsum.N_count": lambda a, kw, r: (_pair_key(_arg(a, kw, 1, "pair")), 0),
    "expsum.classify": lambda a, kw, r: (_pair_key(_arg(a, kw, 1, "pair")), 0),
    "walsh.walsh_coeff": lambda a, kw, r: (
        f"{_pair_key(_arg(a, kw, 0, 'spec').pair)}@{_arg(a, kw, 1, 'y').enc}", 0),
    "field_core.add_enc_bulk": lambda a, kw, r: (None, _bulk_elems(a, kw)),
    "field_core.build_context": lambda a, kw, r: (None, _table_bytes(r)),
}


class Tracer:
    """In-memory span recorder.  Each span is kept as the list
    [id, parent id, name, start, end, key, work] until the process ends."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stack = [0]

    def wrap(self, name, fn):
        probe = PROBES.get(name)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                key, work = probe(args, kwargs, result) if probe and done else (None, 0)
                spans.append([sid, parent, name, t0, t1, key, work])

        return traced


class BuildTimer:
    """Times field_core.build_context and remembers its arguments."""

    def __init__(self):
        self.seconds = 0.0
        self.builds = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def timed(params, m, use_tables=True):
            t0 = time.perf_counter()
            try:
                return fn(params, m, use_tables)
            finally:
                self.seconds += time.perf_counter() - t0
                self.builds.append([params.p, params.k, m, use_tables])

        return timed


def wrap_targets(modules) -> list:
    """(qualified name, function) for every callable the trace wraps: the
    public functions each layer module defines, and two methods."""
    from charsum.cycint import CycInt
    from charsum.field_core import FieldCtx

    out = []
    for layer in LAYERS:
        mod = modules[layer]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if attr.startswith("_") or name in UNWRAPPED or isinstance(obj, type):
                continue
            if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                out.append((name, obj))
    out.append(("field_core.add_enc_bulk", FieldCtx.add_enc_bulk))
    out.append(("cycint.from_counts", CycInt.__dict__["from_counts"].__func__))
    return out


def install(wrap, only=None) -> None:
    """Rebind every name that refers to a target function to ``wrap(name, fn)``.

    That covers the defining module's global (so intra-module calls such
    as corollary_suite -> N_count are caught), every module that imported
    the name (cli.build_context, sequences.S0_bruteforce), the package
    namespace, FieldCtx.add_enc_bulk and the classmethod CycInt.from_counts.
    ``only`` limits the targets to a set of qualified names.
    """
    import charsum.cli  # noqa: F401  (imports every layer module)
    from charsum.cycint import CycInt
    from charsum.field_core import FieldCtx

    namespaces = {name: mod for name, mod in sys.modules.items()
                  if name == "charsum" or name.startswith("charsum.")}
    layers = {name.rsplit(".", 1)[-1]: mod for name, mod in namespaces.items()}
    wrapped = {id(fn): wrap(name, fn) for name, fn in wrap_targets(layers)
               if only is None or name in only}
    for mod in namespaces.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    if id(FieldCtx.add_enc_bulk) in wrapped:
        FieldCtx.add_enc_bulk = wrapped[id(FieldCtx.add_enc_bulk)]
    from_counts = CycInt.__dict__["from_counts"].__func__
    if id(from_counts) in wrapped:
        CycInt.from_counts = classmethod(wrapped[id(from_counts)])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--record", required=True)
    ap.add_argument("--trace", metavar="RUN_ID")
    ap.add_argument("--setup-only", metavar="BUILDS_JSON")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from charsum import cli
    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"charsum was imported from {cli.__file__}, not from {SRC}")

    record = {"import_s": import_s}
    if opts.trace:
        tracer = Tracer()
        install(tracer.wrap)
    else:
        timer = BuildTimer()
        install(timer.wrap, {"field_core.build_context"})

    if opts.setup_only is not None:
        from charsum.field_core import FieldParams, build_context
        for p, k, m, use_tables in json.loads(opts.setup_only):
            build_context(FieldParams(p, k), m, use_tables)
        rc = 0
    else:
        rc = cli.run(argv)
        sys.stdout.flush()

    record["rc"] = rc
    if opts.trace:
        record["run"] = opts.trace
        record["spans"] = tracer.spans
    else:
        record["build_s"] = timer.seconds
        record["builds"] = timer.builds
    with open(opts.record, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
