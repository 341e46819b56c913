"""Command-line surface: reproducible verification runs and data exports.

Subcommands
    cyclotomy-table      full cyclotomic-number table (--format json or csv)
    pt-sums              per-class character sums P_t
    jacobsthal-scan      JSON lines of H/I/curve records over GF(p^2k)
    expsum               one record for a given pair (a, b)
    expsum-sweep         all a for a fixed b, with the distribution report
    walsh-spectrum       full Walsh spectrum of a pair
    theorem1-verify      closed-form spectrum check of the (1, 1) pair
    sequences-crosscorr  cross-correlation table of the decimated pair (json or csv)
    verify-all           the complete identity suite; exit 0 iff all pass

Output is JSON lines; only cyclotomy-table and sequences-crosscorr take
--format, to choose csv instead.  Exit codes: 0 ok, 1 verification
failure, 2 invalid arguments, 3 desk-scale guard exceeded.  All
randomness is seeded and the seed is printed; element arguments accept
"c0,c1,...,c_{m-1}" digits or "g^e".
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time

import numpy as np

from . import __version__, cyclotomy, expsum, jacobsthal, sequences, walsh
from .errors import CharsumError, GuardExceeded, IdentityViolation, ZeroB
from .field_core import FieldParams, build_context, context, size_guard

SCHEMA_VERSION = 1
DEFAULT_SEED = 20260809


def _header(cmd: str, args, ctx) -> dict:
    return {
        "schema": f"charsum.{cmd}/{SCHEMA_VERSION}",
        "version": __version__,
        "p": args.p,
        "k": args.k,
        "seed": args.seed,
        "context": {
            "degree": ctx.m,
            "modulus": ",".join(str(c) for c in ctx.modulus),
        },
    }


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _parse_common(sub, element_args=()):
    sub.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    sub.add_argument("--k", type=int, required=True, help="tower parameter, n = 4k")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="seed for randomized checks (printed in the header)")
    sub.add_argument("--force", action="store_true",
                     help="run even if the field (p^4k elements, p^2k for jacobsthal-scan) "
                          "is beyond the lookup tables, in pure-Python arithmetic")
    for name, help_text in element_args:
        sub.add_argument(name, required=True, help=help_text)


def _format_arg(sub):
    sub.add_argument("--format", choices=("json", "csv"), default="json")


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def _cmd_cyclotomy_table(args) -> int:
    ctx = context(args.p, args.k)
    view = ctx.subfield(2 * args.k)
    table = cyclotomy.full_table(view)
    if args.format == "csv":
        print(table.to_csv())
    else:
        _emit(_header("cyclotomy-table", args, ctx))
        _emit({"order": table.order, "nu": f"g^{table.nu_log}",
               "table": [list(r) for r in table.table], "total": table.total})
    return 0


def _cmd_pt_sums(args) -> int:
    ctx = context(args.p, args.k)
    view = ctx.subfield(2 * args.k)
    pt = cyclotomy.pt_sums(view)
    _emit(_header("pt-sums", args, ctx))
    _emit({"order": pt.order, "values": [v.as_int() for v in pt.values]})
    return 0


def _cmd_jacobsthal_scan(args) -> int:
    # standalone GF(p^2k) context: the scan does not need the big field
    params = FieldParams(args.p, args.k)
    ctx = build_context(params, 2 * args.k)
    view = ctx.subfield(ctx.m)
    _emit(_header("jacobsthal-scan", args, ctx))
    report = jacobsthal.theorem2_scan(view)
    for rec in report.records:
        _emit(rec.to_json_dict(view))
    _emit({"max_abs_H": report.max_abs_H, "argmax": f"g^{report.argmax_log}",
           "max_ratio": report.max_ratio, "bound_attained": report.attained})
    return 0


def _cmd_expsum(args) -> int:
    ctx = context(args.p, args.k)
    pair = expsum.CoeffPair(ctx.parse_element(args.a), ctx.parse_element(args.b))
    rec = expsum.expsum_record(ctx, pair)
    _emit(_header("expsum", args, ctx))
    _emit(rec.to_json_dict(ctx))
    return 0


def _cmd_expsum_sweep(args) -> int:
    ctx = context(args.p, args.k)
    b = ctx.parse_element(args.b)
    if b.is_zero:
        raise ZeroB("distribution sweep needs b != 0")
    _emit(_header("expsum-sweep", args, ctx))
    report = expsum.distribution_sweep(ctx, b, lambda rec: _emit(rec.to_json_dict(ctx)))
    _emit(report.to_json_dict(ctx))
    return 0


def _cmd_walsh_spectrum(args) -> int:
    ctx = context(args.p, args.k)
    pair = expsum.CoeffPair(ctx.parse_element(args.a), ctx.parse_element(args.b))
    spectrum = walsh.full_spectrum(ctx, pair)
    _emit(_header("walsh-spectrum", args, ctx))
    labels = ["0"] + [f"g^{e}" for e in range(ctx.order)]
    for label, row in zip(labels, map(tuple, spectrum.counts)):
        c, n = spectrum.values[row]
        # |S|^2 is a rational integer on every bent spectrum and at p = 3
        _emit({"y": label, "coeff": list(c.c),
               "norm2": n.as_int() if n.is_rational_integer else list(n.c)})
    _emit({"summary": dict(sorted(spectrum.summary.items())),
           "parseval": spectrum.parseval,
           "bent": spectrum.bent,
           "weakly_regular_neg": spectrum.weakly_regular_neg})
    return 0


def _cmd_theorem1_verify(args) -> int:
    ctx = context(args.p, args.k)
    chk = walsh.theorem1_spectrum_check(ctx)
    _emit(_header("theorem1-verify", args, ctx))
    _emit({"formula_ok": chk.all_formula_ok, "special_case_ok": chk.all_special_ok,
           "counts_ok": chk.counts_ok, "bent": chk.bent,
           "weakly_regular_neg": chk.weakly_regular,
           "summary": dict(sorted(chk.summary.items()))})
    return 0 if chk.ok(ctx) else 1


def _cmd_sequences_crosscorr(args) -> int:
    ctx = context(args.p, args.k)
    table = sequences.correlation_table(ctx)
    if args.format == "csv":
        print("tau,value")
        for tau, c in enumerate(table):
            print(f"{tau},{c}")
    else:
        _emit(_header("sequences-crosscorr", args, ctx))
        for tau, c in enumerate(table):
            _emit({"tau": tau, "coeff": list(c.c)})
    return 0


# --------------------------------------------------------------------------
# verify-all
# --------------------------------------------------------------------------

def _run_verify_all(args) -> int:
    ctx = context(args.p, args.k)
    pk = args.p ** args.k
    view = ctx.subfield(2 * args.k)
    b_values = [ctx.parse_element(s.strip()) for s in args.b.split(";")]
    if any(b.is_zero for b in b_values):
        raise ZeroB("the sweeps need b != 0")
    if len({b.enc for b in b_values}) < len(b_values):
        raise ValueError("repeated b value")
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    rng = random.Random(args.seed)
    print(f"charsum verify-all  p={args.p} k={args.k} seed={args.seed} "
          f"b={[ctx.format_element(b) for b in b_values]}")

    sweeps = {}

    def sweep(b):
        if b.enc not in sweeps:
            sweeps[b.enc] = expsum.distribution_sweep(ctx, b)  # raises on any defect
        return sweeps[b.enc]

    @functools.cache
    def bound_scan():
        # eq1, theorem2 and curve read the same scan; BoundViolation on defect
        return jacobsthal.theorem2_scan(view)

    def check_lemma1():
        rep = cyclotomy.verify_lemma1(view)
        return rep.ok, f"total {rep.total}, {len(rep.mismatches)} mismatches"

    def check_pt():
        pt = cyclotomy.pt_sums(view)  # raises on defect
        return len(pt.values) == pk + 1, f"values {[v.as_int() for v in pt.values]}"

    def check_eq1():
        records = bound_scan().records
        eta = view.eta_bulk(np.array([rec.a.enc for rec in records], dtype=np.int64))
        for rec, eta_a in zip(records, eta.tolist()):
            if rec.I != jacobsthal.eq1_value(pk, eta_a):
                return False, f"a = {ctx.format_element(rec.a)} gives {rec.I}"
        return True, f"{len(records)} elements"

    def check_theorem2():
        rep = bound_scan()
        return len(rep.records) == pk * pk - pk, (
            f"{len(rep.records)} elements, max |H| = {rep.max_abs_H}, "
            f"ratio {rep.max_ratio:.4f}")

    def check_curve():
        for rec in bound_scan().records:
            if rec.H != (pk + 1) * (rec.curve_N - pk):
                return False, f"mismatch at a = {ctx.format_element(rec.a)}"
        return True, "H/(p^k+1) = N - p^k throughout"

    def check_theorem3():
        for b in b_values:
            sweep(b)
        return True, f"full sweeps at {len(b_values)} b values"

    def check_prop1():
        # the sweeps raise RangeViolation on N > 2 outside the JACOBSTHAL case
        ranged = sum(rep.r + rep.s + rep.t for rep in map(sweep, b_values))
        # ker L = ker F at every a of each swept b with differing norms, by
        # the dlog condition, and at --samples drawn pairs
        a_encs = [expsum.sweep_order(ctx)[~expsum.norms_match(ctx, b)] for b in b_values]
        b_encs = [np.full(len(a), b.enc) for a, b in zip(a_encs, b_values)]
        expected = sum(map(len, a_encs)) + args.samples
        samples = 0
        while samples < args.samples:
            a = ctx.from_enc(rng.randrange(ctx.q))
            b = ctx.from_enc(rng.randrange(ctx.q))
            if a.is_zero and b.is_zero:
                continue
            if expsum.case_detail(ctx, expsum.CoeffPair(a, b)).norms_match:
                continue
            a_encs.append([a.enc])
            b_encs.append([b.enc])
            samples += 1
        compared = expsum.prop1_kernel_check(ctx, np.concatenate(a_encs), np.concatenate(b_encs))
        if compared != expected:
            return False, f"ker L = ker F at {compared} pairs, expected {expected}"
        return True, (f"N <= 2 at {ranged} three-valued pairs + ker L = ker F at {compared} "
                      f"norms-differ pairs ({samples} sampled)")

    def check_prop2():
        n_pairs = 0
        for b in b_values:
            # the sweep has checked its N table against the direct count on this slice
            slice_ = sweep(b).jacobsthal
            a_encs = np.array([a.enc for a in slice_], dtype=np.int64)
            n1 = np.array(list(slice_.values()), dtype=np.int64)
            n2 = expsum.N_via_nonsquares_bulk(ctx, b, a_encs)
            n3 = expsum.N_via_jacobsthal_bulk(ctx, b, a_encs)
            if not n1.size == n2.size == n3.size:
                return False, f"paths evaluated {n1.size}/{n2.size}/{n3.size} pairs"
            off = np.flatnonzero((n1 != n2) | (n1 != n3))
            if off.size:
                i = off[0]
                return False, (f"paths {n1[i]}/{n2[i]}/{n3[i]} at "
                               f"a = {ctx.format_element(ctx.from_enc(int(a_encs[i])))}")
            n_pairs += n2.size
        return True, f"{n_pairs} pairs, three paths each"

    def check_cor1():
        # the seeded triples first, in the order of the rng stream, then one batch
        triples = []
        while len(triples) < args.samples:
            a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
            if a == 0 and b == 0:
                continue
            triples.append((a, b, rng.randrange(ctx.order)))
        a_encs, b_encs, h_logs = np.array(triples, dtype=np.int64).T
        same = expsum.corollary1_bulk(ctx, a_encs, b_encs, h_logs)
        if same.size != args.samples:
            return False, f"{same.size} triples evaluated, expected {args.samples}"
        off = np.flatnonzero(~same)
        if off.size:
            h = ctx.from_exp(int(h_logs[off[0]]))
            return False, f"scaling failed at h = {ctx.format_element(h)}"
        return True, f"{same.size} seeded triples"

    def check_cor2():
        # (i)-(vi) at every pair of the slice in one batch per b; (vii)
        # depends on b alone, so once per b
        n_pairs = 0
        for b in b_values:
            rep = sweep(b)
            total, expected = expsum.corollary_eq9_check(ctx, rep)
            if total != expected:
                return False, (f"property vii: sum of N = {total}, expected {expected} "
                               f"at b = {ctx.format_element(b)}")
            a_list = list(rep.jacobsthal)
            results = expsum.corollary_properties(ctx, b, [a.enc for a in a_list])
            checked = {key: ok for key, ok in results.items() if ok is not None}
            sizes = sorted({ok.size for ok in checked.values()})
            if sizes != [len(a_list)]:
                return False, f"{sizes} pairs evaluated, expected {len(a_list)}"
            failed = np.flatnonzero(~np.logical_and.reduce(list(checked.values())))
            if failed.size:
                i = failed[0]
                bad = [key for key, ok in checked.items() if not ok[i]]
                return False, f"properties {bad} failed at a = {ctx.format_element(a_list[i])}"
            n_pairs += len(a_list)
        return True, f"{n_pairs} pairs x 7 properties"

    def check_rst():
        lines = []
        for b in b_values:
            rep = sweep(b)
            if any(rep.residuals):
                return False, f"residuals {rep.residuals} at b = {ctx.format_element(b)}"
            lines.append(f"b={ctx.format_element(b)}: (r,s,t)=({rep.r},{rep.s},{rep.t})")
        return True, "; ".join(lines)

    def check_theorem1():
        chk = walsh.theorem1_spectrum_check(ctx)
        return chk.ok(ctx), f"spectrum counts {chk.summary}"

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

    failures = []
    for name, fn in checks:
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except CharsumError as exc:
            ok, detail = False, str(exc)
        dt = time.perf_counter() - t0
        status = "ok" if ok else "FAIL"
        print(f"[{status:4}] {name}: {detail} ({dt:.2f}s)")
        if not ok:
            failures.append(name)
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
        s.add_argument("--samples", type=int, default=200,
                       help="sample count for randomized checks"),
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
        # the field the command builds, GF(p^2k) for jacobsthal-scan and
        # GF(p^4k) for every other command, must have lookup tables
        if not args.force:
            size_guard(args.p, (2 if args.cmd == "jacobsthal-scan" else 4) * args.k)
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
    sys.exit(run())


if __name__ == "__main__":
    main()
