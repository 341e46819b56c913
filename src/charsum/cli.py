"""Command-line surface: reproducible verification runs and data exports.

Subcommands
    cyclotomy-table      full cyclotomic-number table (--format json or csv)
    pt-sums              per-class character sums P_t
    jacobsthal-scan      JSON lines of H/I/curve records over GF(p^2k), one per a
    expsum               one record for a given pair (a, b)
    expsum-sweep         all a for a fixed b, with the distribution report
    walsh-spectrum       full Walsh spectrum of a pair
    theorem1-verify      closed-form spectrum check of the (1, 1) pair
    sequences-crosscorr  cross-correlation table of the decimated pair (json or csv)
    verify-all           the complete identity suite; exit 0 iff all pass

Output is JSON lines; only cyclotomy-table and sequences-crosscorr take
--format, to choose csv instead, and verify-all's timings go to stderr.
Only verify-all, whose SAMPLES draws are the only randomness, takes
--seed and prints it; every JSON header keeps "seed": DEFAULT_SEED.
Exit codes: 0 ok, 1 verification failure, 2 invalid arguments, 3 the field
(GF(p^4k), GF(p^2k) for jacobsthal-scan) is beyond the lookup tables;
--force builds it without tables, in pure-Python arithmetic at any size;
141 (128 + SIGPIPE) the reader of stdout closed it before the end.
Element arguments accept "c0,c1,...,c_{m-1}" digits or "g^e".
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
import time

import numpy as np

from . import __version__, cyclotomy, expsum, jacobsthal, sequences, walsh
from .errors import CharsumError, GuardExceeded, IdentityViolation, OracleMismatch, ZeroB
from .field_core import FieldParams, build_context, context, label

SCHEMA_VERSION = 1
DEFAULT_SEED = 20260809
SAMPLES = 200  # seeded draws of prop1 and corollary1


def _header(cmd: str, args, ctx) -> dict:
    return {
        "schema": f"charsum.{cmd}/{SCHEMA_VERSION}",
        "version": __version__,
        "p": args.p,
        "k": args.k,
        "seed": DEFAULT_SEED,
        "context": {
            "degree": ctx.m,
            "modulus": ",".join(str(c) for c in ctx.modulus),
        },
    }


_ENCODER = json.JSONEncoder(sort_keys=True)


def _emit(obj) -> None:
    print(_ENCODER.encode(obj))


def _parse_common(sub, element_args=()):
    sub.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    sub.add_argument("--k", type=int, required=True, help="tower parameter, n = 4k")
    sub.add_argument("--force", action="store_true",
                     help="build the field (p^4k elements, p^2k for jacobsthal-scan) without "
                          "lookup tables and run in pure-Python arithmetic, at any size")
    for name, help_text in element_args:
        sub.add_argument(name, required=True, help=help_text)


def _format_arg(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _field(args, m=None):
    # GF(p^4k) unless m is given; with --force, without tables at any size
    if args.force:
        return build_context(FieldParams(args.p, args.k), m or 4 * args.k, use_tables=False)
    return context(args.p, args.k, m)


def _log_arg(ctx, text: str) -> int:
    # an element argument, named by its dlog (-1 for zero) from here on
    return ctx.log(ctx.parse_element(text))


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def _cmd_cyclotomy_table(args) -> int:
    ctx = _field(args)
    view = ctx.subfield(2 * args.k)
    table = cyclotomy.full_table(view)
    if args.format == "csv":
        print("i\\j," + ",".join(map(str, range(len(table)))))
        for i, row in enumerate(table.tolist()):
            print(f"{i}," + ",".join(map(str, row)))
    else:
        _emit(_header("cyclotomy-table", args, ctx))
        _emit({"order": len(table), "nu": label(view.step),
               "table": table.tolist(), "total": int(table.sum())})
    return 0


def _cmd_pt_sums(args) -> int:
    ctx = _field(args)
    view = ctx.subfield(2 * args.k)
    values = cyclotomy.pt_sums(view)
    _emit(_header("pt-sums", args, ctx))
    _emit({"order": len(values), "values": [v.as_int() for v in values]})
    return 0


def _cmd_jacobsthal_scan(args) -> int:
    # standalone GF(p^2k) context: the scan does not need the big field
    ctx = _field(args, 2 * args.k)
    view = ctx.subfield(ctx.m)
    _emit(_header("jacobsthal-scan", args, ctx))
    report = jacobsthal.theorem2_scan(view)
    pk = report.pk
    for log, H, I, I2, curve_N in zip(*(x.tolist() for x in (
            report.logs, report.H, report.I, report.I2, report.curve_N))):
        _emit({"a": label(log), "H": H, "I": I, "I2": I2, "curve_N": curve_N,
               "bound_ratio": abs(H) / (2 * math.sqrt(pk) * (pk + 1))})
    _emit({"max_abs_H": report.max_abs_H, "argmax": label(report.argmax_log),
           "max_ratio": report.max_ratio, "bound_attained": report.attained})
    return 0


def _cmd_expsum(args) -> int:
    ctx = _field(args)
    pair = expsum.CoeffPair(ctx.parse_element(args.a), ctx.parse_element(args.b))
    rec = expsum.expsum_record(ctx, pair)
    _emit(_header("expsum", args, ctx))
    _emit(rec)
    return 0


def _cmd_expsum_sweep(args) -> int:
    ctx = _field(args)
    lb = _log_arg(ctx, args.b)
    if lb < 0:
        raise ZeroB("distribution sweep needs b != 0")
    _emit(_header("expsum-sweep", args, ctx))
    report = expsum.distribution_sweep(ctx, lb, _emit)
    _emit(report.to_json_dict())
    return 0


def _cmd_walsh_spectrum(args) -> int:
    ctx = _field(args)
    spectrum = walsh.full_spectrum(ctx, _log_arg(ctx, args.a), _log_arg(ctx, args.b))
    _emit(_header("walsh-spectrum", args, ctx))
    # |S|^2 is a rational integer on every bent spectrum and at p = 3
    rendered = [{"coeff": list(c.c), "norm2": n.as_int() if n.is_rational_integer else list(n.c)}
                for c, n in spectrum.values]
    for i, v in enumerate(spectrum.index.tolist()):
        _emit({"y": label(i - 1), **rendered[v]})
    _emit({"summary": dict(sorted(spectrum.summary.items())),
           "parseval": spectrum.parseval,
           "bent": spectrum.bent,
           "weakly_regular_neg": spectrum.weakly_regular_neg})
    return 0


def _cmd_theorem1_verify(args) -> int:
    ctx = _field(args)
    spectrum = walsh.theorem1_spectrum_check(ctx)  # raises on the first failed condition
    _emit(_header("theorem1-verify", args, ctx))
    _emit({"formula_ok": True, "special_case_ok": True, "counts_ok": True,
           "bent": spectrum.bent, "weakly_regular_neg": spectrum.weakly_regular_neg,
           "summary": dict(sorted(spectrum.summary.items()))})
    return 0


def _cmd_sequences_crosscorr(args) -> int:
    ctx = _field(args)
    values, index = sequences.correlation_table(ctx)
    if args.format == "csv":
        rendered = [str(c) for c in values]
        print("tau,value")
        for tau, v in enumerate(index.tolist()):
            print(f"{tau},{rendered[v]}")
    else:
        rendered = [list(c.c) for c in values]
        _emit(_header("sequences-crosscorr", args, ctx))
        for tau, v in enumerate(index.tolist()):
            _emit({"tau": tau, "coeff": rendered[v]})
    return 0


# --------------------------------------------------------------------------
# verify-all
# --------------------------------------------------------------------------

def _require(holds: bool, detail: str) -> None:
    # a defect the CLI finds itself: IdentityViolation carrying the detail
    if not holds:
        raise IdentityViolation(detail)


def _run_verify_all(args) -> int:
    ctx = _field(args)
    pk = args.p ** args.k
    view = ctx.subfield(2 * args.k)
    b_values = [_log_arg(ctx, s) for s in args.b.split(";")]  # the dlogs of the b
    if min(b_values) < 0:
        raise ZeroB("the sweeps need b != 0")
    if len(set(b_values)) < len(b_values):
        raise ValueError("repeated b value")
    rng = random.Random(args.seed)
    print(f"charsum verify-all  p={args.p} k={args.k} seed={args.seed} "
          f"b={[label(lb) for lb in b_values]}")

    @functools.cache
    def sweep(lb):
        return expsum.distribution_sweep(ctx, lb)  # raises on any defect

    @functools.cache
    def bound_scan():
        # eq1, theorem2, curve, prop2 and r/s/t read the same scan; BoundViolation on defect
        return jacobsthal.theorem2_scan(view)

    @functools.cache
    def jacobsthal_route(lb):
        # g and N from H on the slice of b, which prop2 and r/s/t read
        rep = sweep(lb)
        la = rep.jacobsthal
        _require(la.size == pk - rep.chi_b, f"{la.size} slice pairs, expected {pk - rep.chi_b}")
        g_logs = expsum.g_logs(ctx, la, lb)
        return g_logs, expsum.N_via_jacobsthal_bulk(ctx, la, lb, g_logs, bound_scan())

    def check_lemma1():
        table = cyclotomy.verify_lemma1(view)  # CyclotomyViolation on defect
        return f"total {table.sum()}, 0 mismatches"

    def check_pt():
        values = cyclotomy.pt_sums(view)  # ClassSumViolation on defect
        return f"values {[v.as_int() for v in values]}"

    def check_eq1():
        rep = bound_scan()
        eta = view.eta_bulk(ctx.exp_enc_bulk(rep.logs))
        off = np.flatnonzero(rep.I != jacobsthal.eq1_value(pk, eta))
        if off.size:
            raise IdentityViolation(f"a = {label(rep.logs[off[0]])} gives {rep.I[off[0]]}")
        return f"{rep.logs.size} elements"

    def check_theorem2():
        rep = bound_scan()
        expected = pk * pk - pk
        _require(rep.logs.size == expected, f"{rep.logs.size} elements, expected {expected}")
        return f"{rep.logs.size} elements, max |H| = {rep.max_abs_H}, ratio {rep.max_ratio:.4f}"

    def check_curve():
        rep = bound_scan()
        off = np.flatnonzero(rep.H != (pk + 1) * (rep.curve_N - pk))
        if off.size:
            raise IdentityViolation(f"mismatch at a = {label(rep.logs[off[0]])}")
        return "H/(p^k+1) = N - p^k throughout"

    def check_theorem3():
        for lb in b_values:
            sweep(lb)
        return f"full sweeps at {len(b_values)} b values"

    def draw():
        # one seeded coefficient, as a dlog: -1 for 0, else a = xi^l
        return rng.randrange(ctx.q) - 1

    def check_prop1():
        # the sweeps raise RangeViolation on N > 2 outside the JACOBSTHAL
        # case: at every a off the slice, r + s + t = q - p^k + chi(b) of them
        ranged = 0
        for lb in b_values:
            rep = sweep(lb)
            covered, tallied = rep.N.size - rep.jacobsthal.size, rep.r + rep.s + rep.t
            _require(covered == tallied == ctx.q - pk + rep.chi_b,
                     f"N <= 2 at {covered} pairs, r + s + t = {tallied}, expected "
                     f"{ctx.q - pk + rep.chi_b} at b = {label(lb)}")
            ranged += covered
        # ker L = ker F at every a of each swept b with differing norms, by
        # the dlog condition, and at SAMPLES drawn pairs; a -> a^(p^k(p^k+1))
        # is (p^k + 1)-to-one, so the norms match at p^k + 1 nonzero a
        la = np.arange(-1, ctx.order, dtype=np.int64)
        a_logs = [la[~expsum.norms_match(ctx, la, lb)] for lb in b_values]
        b_logs = [np.full(len(a), lb) for a, lb in zip(a_logs, b_values)]
        expected = len(b_values) * (ctx.q - pk - 1) + SAMPLES
        drawn = []
        while len(drawn) < SAMPLES:
            a, b = draw(), draw()
            if (a >= 0 or b >= 0) and not expsum.norms_match(ctx, a, b):  # (0, 0) is skipped
                drawn.append((a, b))
        a, b = np.array(drawn, dtype=np.int64).T
        compared = expsum.prop1_kernel_check(ctx, np.concatenate(a_logs + [a]),
                                             np.concatenate(b_logs + [b]))
        _require(compared == expected, f"ker L = ker F at {compared} pairs, expected {expected}")
        return (f"N <= 2 at {ranged} three-valued pairs + ker L = ker F at {compared} "
                f"norms-differ pairs ({len(drawn)} sampled)")

    def check_prop2():
        n_pairs = 0
        for lb in b_values:
            # the sweep has checked its N table against the direct count on this slice
            rep = sweep(lb)
            la, n1 = rep.jacobsthal, rep.N[rep.jacobsthal + 1]
            g_logs, n3 = jacobsthal_route(lb)
            n2 = expsum.N_via_nonsquares_bulk(ctx, la, lb, g_logs)
            _require(n1.size == n2.size == n3.size,
                     f"paths evaluated {n1.size}/{n2.size}/{n3.size} pairs")
            off = np.flatnonzero((n1 != n2) | (n1 != n3))
            if off.size:
                i = off[0]
                raise IdentityViolation(f"paths {n1[i]}/{n2[i]}/{n3[i]} at a = {label(la[i])}")
            n_pairs += n2.size
        expected = sum(pk - sweep(lb).chi_b for lb in b_values)
        _require(n_pairs == expected, f"{n_pairs} pairs, expected {expected}")
        return f"{n_pairs} pairs, three paths each"

    def check_cor1():
        # the seeded triples first, in the order of the rng stream, then one batch
        triples = []
        while len(triples) < SAMPLES:
            a, b = draw(), draw()
            if a < 0 and b < 0:
                continue
            triples.append((a, b, rng.randrange(ctx.order)))
        la, lb, h_logs = np.array(triples, dtype=np.int64).T
        same = expsum.corollary1_bulk(ctx, la, lb, h_logs)
        _require(same.size == SAMPLES, f"{same.size} triples evaluated, expected {SAMPLES}")
        off = np.flatnonzero(~same)
        if off.size:
            raise IdentityViolation(f"scaling failed at h = {label(h_logs[off[0]])}")
        return f"{same.size} seeded triples"

    def check_cor2():
        # (i)-(vi) at every pair of the slice in one batch per b; (vii)
        # depends on b alone, so once per b; the detail counts the pairs of
        # the arrays compared, the sums of (vii) and the b where (vi) ran
        n_pairs, sums, with_vi = 0, 0, 0
        for lb in b_values:
            rep = sweep(lb)
            la = rep.jacobsthal
            _require(la.size == pk - rep.chi_b, f"{la.size} slice pairs, expected {pk - rep.chi_b}")
            total, expected = expsum.corollary_eq9_check(ctx, lb, rep.N[la + 1])
            _require(total == expected, f"property vii: sum of N = {total}, expected {expected} "
                                        f"at b = {label(lb)}")
            sums += 1
            results = expsum.corollary_properties(ctx, rep)
            # (vi) is evaluated exactly where its hypotheses hold
            special = args.p % 4 == 3 and args.k % 2 == 1 and rep.chi_b == 1
            _require((results["vi"] is not None) == special,
                     f"property vi {'skipped' if special else 'evaluated'} at b = "
                     f"{label(lb)}, where p = 3 mod 4, k is odd and chi(b) = 1"
                     f"{'' if special else ' do not all hold'}")
            checked = {key: ok for key, ok in results.items() if ok is not None}
            sizes = sorted({ok.size for ok in checked.values()})
            _require(sizes == [la.size], f"{sizes} pairs evaluated, expected {la.size}")
            failed = np.flatnonzero(~np.logical_and.reduce(list(checked.values())))
            if failed.size:
                i = failed[0]
                bad = [key for key, ok in checked.items() if not ok[i]]
                raise IdentityViolation(f"properties {bad} failed at a = {label(la[i])}")
            n_pairs += sizes[0]
            with_vi += "vi" in checked
        expected = sum(pk - sweep(lb).chi_b for lb in b_values)
        _require(n_pairs == expected, f"{n_pairs} pairs x i-v, expected {expected}")
        vi = f"vi at {with_vi} and " if with_vi else ""
        return f"{n_pairs} pairs x i-v, {vi}vii at {sums} b values"

    def check_rst():
        # the sweep's tallies against their closed forms in J2, the sum of
        # (2N - 1)^2 over the slice with N from H: 8t = q + p^k - 1 - chi - J2,
        # 2s = q - p^k + chi (p^k + 1) - 4t and 2r = q - p^k + chi (1 - p^k) + 2t
        lines = []
        for lb in b_values:
            rep = sweep(lb)  # OracleMismatch unless the identities hold
            chi, j2 = rep.chi_b, int(((2 * jacobsthal_route(lb)[1] - 1) ** 2).sum())
            t8 = ctx.q + pk - 1 - chi - j2
            # q - p^k and p^k +- 1 are even, so r and s are integers once t is
            t = t8 // 8
            closed = ((ctx.q - pk + chi * (1 - pk)) // 2 + t,
                      (ctx.q - pk + chi * (pk + 1)) // 2 - 2 * t, t)
            where = f"b={label(lb)}: (r,s,t)=({rep.r},{rep.s},{rep.t})"
            if t8 % 8 or (rep.r, rep.s, rep.t) != closed:
                raise OracleMismatch(f"{where}, closed forms ({','.join(map(str, closed))}) "
                                     f"from J2 = {j2}, 8t = {t8}")
            lines.append(where)
        return "; ".join(lines)

    def check_theorem1():
        return f"spectrum counts {walsh.theorem1_spectrum_check(ctx).summary}"

    checks = [
        ("lemma1 cyclotomic table", check_lemma1),
        ("pt class sums", check_pt),
        ("eq1 companion sum", check_eq1),
        ("theorem2 jacobsthal bound", check_theorem2),
        ("curve count identity", check_curve),
        ("theorem3 oracle equivalence", check_theorem3),
        ("prop1 three-valued range", check_prop1),
        ("prop2/eq8 triple path", check_prop2),
        ("corollary1 scaling", check_cor1),
        ("corollary2 suite", check_cor2),
        ("r/s/t distribution identities", check_rst),
        ("theorem1 spectrum", check_theorem1),
    ]

    # the one place a verdict is decided: a check returns its detail or raises
    failures = []
    for name, fn in checks:
        t0 = time.perf_counter()
        try:
            status, detail = "ok", fn()
        except CharsumError as exc:
            status, detail = "FAIL", str(exc)
            failures.append(name)
        print(f"[{status:4}] {name}: {detail}")
        print(f"[time] {name}: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    if failures:
        print(f"FAILED: {failures[0]}")
        return 1
    print("all identities verified")
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charsum",
        description="exact character-sum laboratory over GF(p^4k)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    handlers = {}

    def add(name, fn, element_args=(), extra=None):
        s = sub.add_parser(name)
        _parse_common(s, element_args)
        if extra:
            extra(s)
        handlers[name] = fn

    add("cyclotomy-table", _cmd_cyclotomy_table, extra=_format_arg)
    add("pt-sums", _cmd_pt_sums)
    add("jacobsthal-scan", _cmd_jacobsthal_scan)
    add("expsum", _cmd_expsum,
        element_args=(("--a", "first coefficient"), ("--b", "second coefficient")))
    add("expsum-sweep", _cmd_expsum_sweep,
        element_args=(("--b", "fixed second coefficient"),))
    add("walsh-spectrum", _cmd_walsh_spectrum,
        element_args=(("--a", "first coefficient"), ("--b", "second coefficient")))
    add("theorem1-verify", _cmd_theorem1_verify)
    add("sequences-crosscorr", _cmd_sequences_crosscorr, extra=_format_arg)
    add("verify-all", _run_verify_all, extra=lambda s: (
        s.add_argument("--b", default="g^0;g^1",
                       help="semicolon-separated b values for the sweeps"),
        s.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for the sampled checks (printed in the first line)"),
    ))

    parser.set_defaults(_handlers=handlers)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args._handlers[args.cmd](args)
    except GuardExceeded as exc:
        print(f"error: {exc}; pass --force to override", file=sys.stderr)
        return 3
    except IdentityViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (CharsumError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early: stdout goes to devnull, so that the
        # interpreter's final flush cannot raise again, and the exit code is
        # the one a shell reports for a writer killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
