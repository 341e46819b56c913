import ast
import dataclasses
import hashlib
import inspect
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from charsum import cli, expsum, jacobsthal, reference, walsh
from charsum.cli import DEFAULT_SEED, run
from charsum.errors import InvariantViolation, OracleMismatch
from charsum.field_core import Elem, FieldCtx, FieldParams, build_context, context

SRC = Path(__file__).resolve().parent.parent / "src"


def _lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_verify_all_31(capsys):
    assert run(["verify-all", "--p", "3", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok  ]") == 12
    assert "all identities verified" in out
    assert "seed=" in out


def test_verify_all_scans_jacobsthal_once(capsys, monkeypatch):
    # eq1, theorem2, curve and prop2 read one Jacobsthal bound scan, which
    # reads every record from one table of eta and calls no per-a I_sum;
    # H by definition (H_sums) is a reference only
    calls = {"theorem2_scan": 0, "scan_table": 0, "I_sum": 0, "H_sums": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in calls:
        module = reference if name in ("I_sum", "H_sums") else jacobsthal
        monkeypatch.setattr(module, name, counting(module, name))
    assert run(["verify-all", "--p", "3", "--k", "1"]) == 0
    assert capsys.readouterr().out.count("[ok  ]") == 12
    assert calls == {"theorem2_scan": 1, "scan_table": 1, "I_sum": 0, "H_sums": 0}
    modules = [m for name, m in sys.modules.items() if name.startswith("charsum.")]
    assert [m.__name__ for m in modules if "H_sums" in vars(m)] == ["charsum.reference"]


_VERIFY_ALL_31 = "485fc3ff99c220c5e5af525a008158008ab5f1c26e44d18ded13b51010f8c67a"


@pytest.mark.parametrize("argv, digest", [
    (["--p", "3", "--k", "1"], _VERIFY_ALL_31),
    (["--p", "5", "--k", "1"], "6e245c05cffdcd57565260de9a39e36ab633a5915cf3ab22a2f600ab6c674344"),
    (["--p", "7", "--k", "1"], "0821c962d71ab424728c984f2f69be14b9a6cfd78495be04e8bc917d2215f6a0"),
    (["--p", "3", "--k", "2", "--b", "g^1"],
     "5ce523821bc8e5ff06de2181909a3bddbf5bd22b2af5eaae370cec746899ddb1"),
])
def test_verify_all_output_pinned(capsys, argv, digest):
    # the whole stdout of verify-all, every check's detail included, by
    # SHA-256; the timings go to stderr, so stdout is hashed as printed
    assert run(["verify-all", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_all_times_each_check_on_stderr(capsys):
    # stdout carries the verdicts alone; stderr carries one "[time]" line
    # per check as it ends, in the order of the checks, and nothing else
    assert run(["verify-all", "--p", "3", "--k", "2", "--b", "g^1"]) == 0
    out, err = capsys.readouterr()
    checks = [line.split(":")[0][len("[ok  ] "):] for line in out.splitlines()
              if line.startswith("[ok  ]")]
    assert len(checks) == 12
    assert not any(re.search(r"\([0-9.]+s\)$", line) for line in out.splitlines())
    timed = [re.fullmatch(r"\[time\] (.+): [0-9]+\.[0-9]{2}s", line) for line in err.splitlines()]
    assert all(timed) and [m.group(1) for m in timed] == checks


def test_verify_all_computes_g_and_N_once(capsys, monkeypatch):
    # prop2 solves for g once per b, for both of its routes, and corollary2
    # directly counts only (a, -b) and (1/a, 1/b), 2 pairs per a of the
    # slice (2 and 4 a at p = 3, k = 1), reading the rest from the sweep
    g_sizes, counted, inside = [], [], []
    real_g, real_count = expsum.g_logs, expsum.N_count_bulk
    real_properties = expsum.corollary_properties

    def g_logs(ctx, la, lb):
        g_sizes.append(len(la))
        return real_g(ctx, la, lb)

    def count(ctx, la, lb):
        if inside:
            counted.append(len(la))
        return real_count(ctx, la, lb)

    def properties(ctx, report):
        inside.append(report)
        try:
            return real_properties(ctx, report)
        finally:
            inside.pop()

    for name, fn in (("g_logs", g_logs), ("N_count_bulk", count),
                     ("corollary_properties", properties)):
        monkeypatch.setattr(expsum, name, fn)
    assert run(["verify-all", "--p", "3", "--k", "1"]) == 0
    assert capsys.readouterr().out.count("[ok  ]") == 12
    assert g_sizes == [2, 4]
    assert counted == [4, 8]


def test_verify_all_names_pairs_by_dlog(capsys, monkeypatch):
    # the pair layer takes dlogs, so few elements go back from encodings to
    # dlogs: at (3,2) fewer than q/2 = 3,280 over the whole run, besides the
    # four sums per pair whose dlogs prop1's division route needs (A, B, s1
    # and g0), at 6,551 norms-differ a and 200 drawn pairs
    logged, route, within = [], [], []
    real, real_check = FieldCtx.log_enc_bulk, expsum.prop1_kernel_check

    def counting(ctx, u):
        (route if within else logged).append(np.size(u))
        return real(ctx, u)

    def check(ctx, la, lb):
        within.append(True)
        try:
            return real_check(ctx, la, lb)
        finally:
            within.pop()

    monkeypatch.setattr(FieldCtx, "log_enc_bulk", counting)
    monkeypatch.setattr(expsum, "prop1_kernel_check", check)
    assert run(["verify-all", "--p", "3", "--k", "2", "--b", "g^1"]) == 0
    assert capsys.readouterr().out.count("[ok  ]") == 12
    assert sum(logged) < 3280, (len(logged), sum(logged))
    assert sum(route) == 4 * (6551 + cli.SAMPLES), (len(route), sum(route))


def test_verify_all_names_b_by_dlog(capsys, monkeypatch):
    # each --b becomes a dlog once, in the CLI: one scalar dlog over the whole
    # run at (3,2), for b = g^1; scan_table names its GF(p) constants by one
    # bulk call
    calls = []
    real = FieldCtx.dlog
    monkeypatch.setattr(FieldCtx, "dlog", lambda ctx, x: calls.append(x) or real(ctx, x))
    assert run(["verify-all", "--p", "3", "--k", "2", "--b", "g^1"]) == 0
    assert capsys.readouterr().out.count("[ok  ]") == 12
    assert len(calls) == 1, len(calls)


def test_corollary2_names_the_properties_it_evaluated(capsys):
    # b = g^1 is a nonsquare, so (vi) is not evaluated and not claimed; at
    # the default b = g^0;g^1 it ran at the square b alone
    assert run(["verify-all", "--p", "3", "--k", "1", "--b", "g^1"]) == 0
    line, = [s for s in _lines(capsys) if s.startswith("[ok  ] corollary2 suite:")]
    assert line == "[ok  ] corollary2 suite: 4 pairs x i-v, vii at 1 b values"
    assert run(["verify-all", "--p", "3", "--k", "1"]) == 0
    assert "[ok  ] corollary2 suite: 6 pairs x i-v, vi at 1 and vii at 2 b values" in (
        _lines(capsys))


def test_prop2_reads_H_from_the_bound_scan(capsys, monkeypatch):
    # one H of the bound scan, at the argument -b^(p^2k+1)/g^2 of the first
    # pair of the slice of b = g^0, lowered by 2(p^k + 1) (and its curve
    # count with it): prop2's H route then gives N one higher there, so
    # prop2 fails, naming the three paths, and so does r/s/t: J2 rises by
    # (2n + 1)^2 - (2n - 1)^2 = 8n, and its closed t = 8 - n
    ctx = context(3, 1)
    b = ctx.one
    a = expsum.jacobsthal_pairs(ctx, b)[0]
    arg = -(b ** 10) / reference.find_g(ctx, expsum.CoeffPair(a, b)) ** 2
    n = expsum.N_count(ctx, expsum.CoeffPair(a, b))[0]
    real = jacobsthal.theorem2_scan

    def corrupted(view):
        rep = real(view)
        i = int(np.flatnonzero(rep.logs == ctx.dlog(arg))[0])
        H, curve_N = rep.H.copy(), rep.curve_N.copy()
        H[i] -= 8
        curve_N[i] -= 2
        return dataclasses.replace(rep, H=H, curve_N=curve_N)

    monkeypatch.setattr(jacobsthal, "theorem2_scan", corrupted)
    assert run(["verify-all", "--p", "3", "--k", "1"]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    t = 8 - n
    assert failed == [
        f"[FAIL] prop2/eq8 triple path: paths {n}/{n}/{n + 1} at a = {ctx.format_element(a)}",
        f"[FAIL] r/s/t distribution identities: b=g^0: (r,s,t)=(46,25,8), "
        f"closed forms ({38 + t},{41 - 2 * t},{t}) from J2 = {18 + 8 * n}, 8t = {8 * t}"]


@pytest.mark.parametrize("b, text", [("g^1;", ""), ("g^1;g^x", "g^x"), ("1,,2", "1,,2")])
def test_malformed_element_is_named(capsys, b, text):
    assert run(["verify-all", "--p", "3", "--k", "1", "--b", b]) == 2
    assert capsys.readouterr().err == (
        f"error: element {text!r} is neither g^e nor digits c0,c1,...\n")


def test_expsum_record(capsys):
    assert run(["expsum", "--p", "3", "--k", "1", "--a", "g^0", "--b", "g^0"]) == 0
    header, record = (json.loads(s) for s in _lines(capsys))
    assert header["schema"] == "charsum.expsum/1"
    assert header["seed"] == DEFAULT_SEED == 20260809  # the header field outlives the option
    assert header["context"]["modulus"] == "2,1,0,0,1"
    assert record == {"a": "g^0", "b": "g^0", "tag": "SQUARE_MATCH",
                      "N": 0, "S0": -9, "witnesses": []}


@pytest.mark.parametrize("argv, digest", [
    (["expsum-sweep", "--p", "3", "--k", "1", "--b", "g^1"],
     "8cb3cf22178c3ac01a81b967b50691fca2812f1864ad0cd871a938a6f977cc86"),
    (["expsum", "--p", "3", "--k", "1", "--a", "g^1", "--b", "g^0"],
     "30a3dc9023d43fedbd4854fa9e23a1255ed0faced8b7e612b14921b0cb480a14"),
    (["jacobsthal-scan", "--p", "5", "--k", "1"],
     "f09c2bc60bc68cf2a8b8c634c007a0c5912303e01b881945d07e34b2a9132eb2"),
    (["walsh-spectrum", "--p", "3", "--k", "1", "--a", "g^0", "--b", "g^0"],
     "e0d2d17817ece0d24af97be55d324e0b1144c07b36d0d22e7bc9b18339f2b692"),
    (["sequences-crosscorr", "--p", "3", "--k", "1"],
     "6f7382f035b0901e09df63c632c2b9656434d7a9f256c5bf9bff1b669dbbf0d7"),
    (["sequences-crosscorr", "--p", "5", "--k", "1", "--format", "csv"],
     "83c090150e3f0bec2868a9f3fed9ea8567c7f31004932aacbad95d47d3ed100e"),
    # not bent: norm2 is printed as coefficient lists
    (["walsh-spectrum", "--p", "5", "--k", "1", "--a", "g^0", "--b", "g^3"],
     "55a3d1a0cb3a695c890fb45911ca7e6c5c4ad9adacb14243e5f557b012e23e09"),
    (["cyclotomy-table", "--p", "3", "--k", "1"],
     "420521a056df91fc101c5636ddaa2c067b091eaa89b0d31f901c129b5eece1d2"),
    (["cyclotomy-table", "--p", "3", "--k", "1", "--format", "csv"],
     "3cf47291e220828a3cbd9c1df1d94ecb517b30c853902edbaf1e09f3209db2e3"),
    (["cyclotomy-table", "--p", "5", "--k", "1", "--format", "csv"],
     "25e6b88330b23852b59963f3c5000975ddbb613e0382e007299516de658c1653"),
    (["pt-sums", "--p", "3", "--k", "1"],
     "21ec4cec14bae6dbf4cee873a1a71616ead927a4fb25003f06de91d636d5af58"),
    (["theorem1-verify", "--p", "3", "--k", "1"],
     "19700b79f79afa5353242b4eb27f99d3c1e55b8760a7501fe20ec2ecffcac12d"),
])
def test_export_output_pinned(capsys, argv, digest):
    # the whole stdout of twelve small exports, byte for byte, by SHA-256
    assert run(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _perfbench_invocations(workload):
    # (argv, stdout SHA-256) of each invocation of a perfbench workload, read
    # from the WORKLOADS literal of perfbench/run.py without running it
    tree = ast.parse((SRC.parent / "perfbench" / "run.py").read_text())
    workloads = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                     and [ast.unparse(t) for t in node.targets] == ["WORKLOADS"])
    entry = workloads.values[[ast.literal_eval(key) for key in workloads.keys].index(workload)]
    invocations = next(kw.value for kw in entry.keywords if kw.arg == "invocations")
    return [tuple(ast.literal_eval(arg) for arg in call.args) for call in invocations.elts]


@pytest.mark.parametrize("argv, digest", _perfbench_invocations("export-3-2")
                         + _perfbench_invocations("scan-31-1"))
def test_export_matches_benchmark_digest(capsys, argv, digest):
    # the benchmark checks each export-3-2 and scan-31-1 stdout against its
    # recorded digest; the same outputs here, so a change that breaks one
    # fails first
    assert run(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, most", [
    (["expsum-sweep", "--p", "3", "--k", "2", "--b", "g^1"], 100),
    (["jacobsthal-scan", "--p", "31", "--k", "1"], 20),
])
def test_exports_build_no_element_per_row(capsys, monkeypatch, argv, most):
    # the rows go from the layers' arrays to JSON: 6,563 and 932 lines here,
    # from at most a few dozen field element objects
    built = []
    real = Elem.__init__

    def counted(self, ctx, enc):
        built.append(enc)
        real(self, ctx, enc)

    monkeypatch.setattr(Elem, "__init__", counted)
    assert run(argv) == 0
    assert len(_lines(capsys)) > 10 * most
    assert len(built) <= most


def test_prop1_samples_match_case_detail(capsys, monkeypatch):
    # the SAMPLES pairs that prop1 draws, each coefficient as a dlog
    # (randrange(q) - 1, -1 for zero), and keeps by the dlog rule are those
    # whose norms differ by exact powers, one draw at a time, from the same
    # seeded stream, and corollary1 draws its triples from the rest of that
    # stream
    seen = {}

    def recording(name, real):
        def recorded(ctx, *arrays):
            seen[name] = arrays
            return real(ctx, *arrays)
        return recorded

    for name in ("prop1_kernel_check", "corollary1_bulk"):
        monkeypatch.setattr(expsum, name, recording(name, getattr(expsum, name)))
    assert run(["verify-all", "--p", "3", "--k", "1"]) == 0
    assert capsys.readouterr().out.count("[ok  ]") == 12
    ctx, rng, want = context(3, 1), random.Random(DEFAULT_SEED), []
    pk = ctx.p ** ctx.params.k
    element = lambda l: ctx.zero if l < 0 else ctx.from_exp(l)
    while len(want) < cli.SAMPLES:
        la, lb = rng.randrange(ctx.q) - 1, rng.randrange(ctx.q) - 1
        a, b = element(la), element(lb)
        if (la >= 0 or lb >= 0) and a ** (pk * (pk + 1)) != b ** (pk + 1):
            want.append((la, lb))
    la, lb = seen["prop1_kernel_check"]
    assert list(zip(la[-cli.SAMPLES:].tolist(), lb[-cli.SAMPLES:].tolist())) == want
    assert any(-1 in pair for pair in want)  # a zero a or b is among the draws
    la, lb, _ = seen["corollary1_bulk"]
    first = (rng.randrange(ctx.q) - 1, rng.randrange(ctx.q) - 1)
    assert first != (-1, -1) and (la[0], lb[0]) == first


def test_cyclotomy_table_csv(capsys):
    assert run(["cyclotomy-table", "--p", "3", "--k", "1", "--format", "csv"]) == 0
    assert _lines(capsys) == [
        "i\\j,0,1,2,3",
        "0,1,0,0,0",
        "1,0,0,1,1",
        "2,0,1,0,1",
        "3,0,1,1,0",
    ]


def test_pt_sums(capsys):
    assert run(["pt-sums", "--p", "5", "--k", "1"]) == 0
    payload = json.loads(_lines(capsys)[1])
    assert payload == {"order": 6, "values": [-1, -1, -1, 4, -1, -1]}


def test_jacobsthal_scan(capsys):
    assert run(["jacobsthal-scan", "--p", "3", "--k", "1"]) == 0
    lines = _lines(capsys)
    header = json.loads(lines[0])
    assert header["schema"] == "charsum.jacobsthal-scan/1"
    assert header["context"]["degree"] == 2  # standalone GF(p^2k) context
    records = [json.loads(s) for s in lines[1:-1]]
    assert len(records) == 6
    assert all(rec["I2"] == rec["I"] + rec["H"] for rec in records)
    footer = json.loads(lines[-1])
    assert footer["max_abs_H"] == 8 and not footer["bound_attained"]


def test_expsum_sweep(capsys):
    assert run(["expsum-sweep", "--p", "3", "--k", "1", "--b", "g^0"]) == 0
    lines = _lines(capsys)
    records = [json.loads(s) for s in lines[1:-1]]
    assert len(records) == 81
    report = json.loads(lines[-1])
    assert report["residuals"] == [0, 0, 0]
    assert report["r"] + report["s"] + report["t"] == 79


def test_walsh_spectrum(capsys):
    assert run(["walsh-spectrum", "--p", "3", "--k", "1", "--a", "g^0", "--b", "g^0"]) == 0
    lines = _lines(capsys)
    rows = [json.loads(s) for s in lines[1:-1]]
    assert len(rows) == 81
    assert rows[0] == {"y": "0", "coeff": [-9, 0], "norm2": 81}
    summary = json.loads(lines[-1])
    assert summary["parseval"] == 81 ** 2
    assert summary["bent"] and summary["weakly_regular_neg"]
    assert sum(summary["summary"].values()) == 81


def test_walsh_spectrum_non_integer_norms(capsys):
    # a non-bent pair at p = 5: |S|^2 has omega terms, emitted as a coefficient list
    assert run(["walsh-spectrum", "--p", "5", "--k", "1", "--a", "g^0", "--b", "g^3"]) == 0
    lines = _lines(capsys)
    rows = [json.loads(s) for s in lines[1:-1]]
    assert len(rows) == 625
    assert any(isinstance(row["norm2"], list) for row in rows)
    assert all(len(row["norm2"]) == 4 for row in rows if isinstance(row["norm2"], list))
    summary = json.loads(lines[-1])
    assert summary["parseval"] == 625 ** 2
    assert not summary["bent"]


def test_theorem1_verify_cmd(capsys):
    assert run(["theorem1-verify", "--p", "3", "--k", "1"]) == 0
    payload = json.loads(_lines(capsys)[-1])
    assert payload["counts_ok"] and payload["bent"]


def test_sequences_crosscorr_csv(capsys):
    assert run(["sequences-crosscorr", "--p", "3", "--k", "1", "--format", "csv"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "tau,value"
    assert len(lines) == 41  # header + one row per shift of a period-40 pair


def test_byte_identical_reruns(capsys):
    args = ["verify-all", "--p", "3", "--k", "1", "--seed", "42"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    # the per-check timings go to stderr: stdout is compared as printed
    assert first == second


def test_guard_exit_code(capsys):
    # the default guard is the lookup-table limit on the field each command
    # builds: GF(p^4k), or GF(p^2k) for jacobsthal-scan
    for argv in (
        ["verify-all", "--p", "101", "--k", "3"],
        ["verify-all", "--p", "7", "--k", "2"],   # p^4k = 5,764,801
        ["verify-all", "--p", "37", "--k", "1"],  # p^4k = 1,874,161
        ["pt-sums", "--p", "37", "--k", "1"],
        ["jacobsthal-scan", "--p", "37", "--k", "2"],  # p^2k = 1,874,161
    ):
        assert run(argv) == 3, argv
        assert capsys.readouterr().out == "", argv
    assert run(["jacobsthal-scan", "--p", "37", "--k", "1"]) == 0  # p^2k = 1369
    assert capsys.readouterr().out.count("\n") == 1 + 37 * 37 - 37 + 1


def test_invalid_arguments_exit_code(capsys):
    for argv in (
        ["expsum", "--p", "3", "--k", "1", "--a", "bogus", "--b", "g^0"],
        ["expsum", "--p", "3", "--k", "1", "--a", "5", "--b", "g^1"],  # digit 5 >= p
        ["expsum", "--p", "3", "--k", "1", "--a", "1,-1", "--b", "g^1"],  # digit -1 < 0
        ["expsum", "--p", "3", "--k", "1", "--a", "g^0"],  # missing --b
        ["nonsense"],
        ["expsum-sweep", "--p", "3", "--k", "1", "--b", "0"],  # sweeps need b != 0
        ["expsum", "--p", "3", "--k", "1", "--a", "0", "--b", "0"],  # f = 0 is no pair
        ["walsh-spectrum", "--p", "3", "--k", "1", "--a", "0", "--b", "0"],
        ["pt-sums", "--p", "3", "--k", "1", "--format", "csv"],  # json only
        ["verify-all", "--p", "3", "--k", "1", "--b", "0"],
        ["verify-all", "--p", "3", "--k", "1", "--b", "g^1;g^1"],  # repeated b
        ["verify-all", "--p", "3", "--k", "1", "--samples", "5"],  # a constant, not an option
        ["pt-sums", "--p", "3", "--k", "1", "--guard", "10"],  # --force is the only override
    ):
        assert run(argv) == 2, argv
        assert capsys.readouterr().out == "", argv


_DETERMINISTIC = [
    ["cyclotomy-table"], ["pt-sums"], ["jacobsthal-scan"], ["expsum", "--a", "g^1", "--b", "g^0"],
    ["expsum-sweep", "--b", "g^1"], ["walsh-spectrum", "--a", "g^0", "--b", "g^0"],
    ["theorem1-verify"], ["sequences-crosscorr"]]


def test_seed_is_verify_all_only(capsys):
    # verify-all's samples are the only randomness: the eight other commands
    # refuse --seed, as the commands without csv refuse --format
    handlers = cli.build_parser().get_default("_handlers")
    assert sorted(argv[0] for argv in _DETERMINISTIC) == sorted(set(handlers) - {"verify-all"})
    for argv in _DETERMINISTIC:
        assert run([*argv, "--p", "3", "--k", "1", "--seed", "1"]) == 2, argv
        assert capsys.readouterr().out == "", argv


def test_force_overrides_guard(capsys):
    # GF(37^4) is beyond the lookup tables: refused, unless --force runs it
    # in pure-Python arithmetic
    assert run(["pt-sums", "--p", "37", "--k", "1"]) == 3
    assert capsys.readouterr().out == ""
    assert run(["pt-sums", "--p", "37", "--k", "1", "--force"]) == 0
    header, values = map(json.loads, _lines(capsys))
    assert header["context"]["degree"] == 4
    assert values == {"order": 38, "values": [36 if t == 19 else -1 for t in range(38)]}


@pytest.mark.parametrize("argv", _DETERMINISTIC + [["verify-all"]], ids=lambda argv: argv[0])
def test_force_is_the_pure_python_path(capsys, monkeypatch, argv):
    # --force builds the command's field without tables, inside the table
    # rule too, and prints the table-backed run's bytes
    built = []
    real = cli.build_context

    def recording(params, m, use_tables=True):
        built.append(real(params, m, use_tables))
        return built[-1]

    monkeypatch.setattr(cli, "build_context", recording)
    argv = [*argv, "--p", "3", "--k", "1"]
    digest = lambda: hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    if argv[0] == "verify-all":
        expected = _VERIFY_ALL_31
    else:
        assert run(argv) == 0
        expected = digest()
    assert run([*argv, "--force"]) == 0
    assert digest() == expected
    assert len(built) == 1 and not built[0].has_tables


def _src_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def _run_src(*args):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=_src_env(), timeout=300)


# python -O strips asserts, so every check must fail through a raised
# error.  Each fault is a snippet run before verify-all in a fresh
# `python -O` process, with the exact set of checks it must fail; the
# first of them is the check the fault is aimed at, and its [FAIL] line
# must contain the detail.
_SCAN_ENTRY_OFF = """
import math
from charsum import jacobsthal
real = jacobsthal.scan_table
def off(view):
    logs, H, I, I2, curve_N = (x.copy() for x in real(view))
    pk = view.ctx.p ** (view.degree // 2)
    {}
    return logs, H, I, I2, curve_N
jacobsthal.scan_table = off
"""
# the cyclotomic table changed
_CYCLOTOMY_TABLE_OFF = """
from charsum import cyclotomy
real = cyclotomy.full_table
def off(view):
    table = real(view)
    {}
    return table
cyclotomy.full_table = off
"""
# one wrong entry of the half-width addition table, set after its
# build-time self-check; the N table adds once per (u, t) and the sweep's
# transform adds nothing (z = x^d and v = b x^2 are single monomials), so
# theorem3's comparison of the closed form with the defining sum catches it
# with or without the per-pair parity check of the direct count
_ADDITION_TABLE_OFF = """
from charsum import field_core
ctx = field_core.context(3, 2)
s = ctx.add_side
ctx.add_table[s + 2] = (ctx.add_table[s + 2] + 1) % s
"""
# the coefficient dlogs of L (rows l0..l3) and F (A^(p^k), B, A) changed
# before prop1's division route reads them
_PROP1_COEFFICIENTS_OFF = """
from charsum import expsum
real = expsum.prop1_coefficients
def off(ctx, la, lb):
    L, F = real(ctx, la, lb)
    {}
    return L, F
expsum.prop1_coefficients = off
"""
_EVERY_SWEEP_USER = ["theorem3 oracle equivalence", "prop1 three-valued range",
                     "prop2/eq8 triple path", "corollary2 suite",
                     "r/s/t distribution identities"]
FAULTS = [
    pytest.param(_CYCLOTOMY_TABLE_OFF.format("table[1, 2] += 1"), ["--p", "3", "--k", "1"],
                 ["lemma1 cyclotomic table"], ", 1 mismatches", id="lemma1-one_number_off"),
    # the last column dropped: the entries left all match the closed form
    pytest.param(_CYCLOTOMY_TABLE_OFF.format("table = table[:, :-1]"), ["--p", "3", "--k", "1"],
                 ["lemma1 cyclotomic table"], "a (4, 3) table, expected (4, 4)",
                 id="lemma1-one_entry_dropped"),
    # a class sum P_0 off by one
    pytest.param("""
from charsum import cyclotomy
real = cyclotomy.CycInt
cyclotomy.CycInt = type("Off", (real,), {"from_counts": classmethod(
    lambda cls, p, c: real.from_counts(p, [c[0] + 1] + list(c[1:])))})
""", ["--p", "3", "--k", "1"], ["pt class sums"], "P_0 = 0, expected -1",
        id="pt-class_sum_off"),
    pytest.param(_SCAN_ENTRY_OFF.format("I[3] += 1"), ["--p", "3", "--k", "1"],
                 ["eq1 companion sum"], " gives ", id="eq1-one_I_off"),
    # an H beyond the Hasse bound fails the five checks that read the scan
    pytest.param("""
from charsum import jacobsthal
real = jacobsthal.scan_table
def inflated(view):
    logs, H, I, I2, curve_N = real(view)
    return logs, 100 * H, I, I2, curve_N
jacobsthal.scan_table = inflated
""", ["--p", "3", "--k", "1"],
        ["theorem2 jacobsthal bound", "eq1 companion sum", "curve count identity",
         "prop2/eq8 triple path", "r/s/t distribution identities"],
        "|H(g^10)| = 800 exceeds the bound",
        id="theorem2-H_beyond_bound"),
    # the first H just beyond the bound: H^2 = 196 > 4 p^k (p^k+1)^2 = 192
    pytest.param(_SCAN_ENTRY_OFF.format("H[0] = math.isqrt(4 * pk * (pk + 1) ** 2) + 1"),
                 ["--p", "3", "--k", "1"],
                 ["theorem2 jacobsthal bound", "eq1 companion sum", "curve count identity",
                  "prop2/eq8 triple path", "r/s/t distribution identities"],
                 "|H(g^10)| = 14 exceeds the bound",
                 id="theorem2-H_at_bound_plus_one"),
    # one a dropped from every array of the scan: the records stay
    # consistent, so only theorem2's count of the a off GF(p^k) and the
    # Jacobsthal route of prop2 and r/s/t, whose argument -b^(p^2k+1)/g^2 is
    # then missing, see it
    pytest.param("""
import numpy as np
from charsum import jacobsthal
real = jacobsthal.scan_table
jacobsthal.scan_table = lambda view: tuple(np.delete(x, 3) for x in real(view))
""", ["--p", "3", "--k", "1"],
        ["theorem2 jacobsthal bound", "prop2/eq8 triple path", "r/s/t distribution identities"],
        "5 elements, expected 6", id="theorem2-one_a_dropped"),
    # with H untouched, only the curve identity reads curve_N
    pytest.param(_SCAN_ENTRY_OFF.format("curve_N[3] += 1"), ["--p", "3", "--k", "1"],
                 ["curve count identity"], "mismatch at a = g^", id="curve-one_count_off"),
    # every pair tallied as three-valued: the sweep's N <= 2 check
    pytest.param("""
import numpy
from charsum import expsum
expsum.case_tags = lambda ctx, la, lb: numpy.zeros(numpy.shape(la), dtype=numpy.int8)
""", ["--p", "3", "--k", "1", "--b", "g^1"], _EVERY_SWEEP_USER, "N = 3 > 2",
        id="theorem3-range_check"),
    pytest.param(_ADDITION_TABLE_OFF, ["--p", "3", "--k", "2"],
                 [*_EVERY_SWEEP_USER, "pt class sums", "corollary1 scaling",
                  "theorem1 spectrum"], "!= defining sum", id="theorem3-addition_table"),
    pytest.param("""
import inspect
from charsum import expsum
source = inspect.getsource(expsum.N_count_bulk)
if "if odd.size:" not in source:
    raise RuntimeError("N_count_bulk has no parity check to drop")
exec(source.replace("if odd.size:", "if False:"), vars(expsum))
""" + _ADDITION_TABLE_OFF, ["--p", "3", "--k", "2"],
        [*_EVERY_SWEEP_USER, "pt class sums", "corollary1 scaling", "theorem1 spectrum"],
        "!= defining sum", id="theorem3-addition_table_without_parity"),
    # a = g^0 counted as a norms-match a of both b, in the CLI's view of
    # expsum only, so that the sweeps' case split stays right; the norms
    # match at p^k + 1 nonzero a, so prop1 compares one pair fewer than its
    # closed form
    pytest.param("""
import types
from charsum import cli, expsum
def off(ctx, la, lb):
    match = expsum.norms_match(ctx, la, lb)
    if getattr(match, "size", 1) == ctx.q:
        match[1] = True
    return match
cli.expsum = types.SimpleNamespace(**{**vars(expsum), "norms_match": off})
""", ["--p", "3", "--k", "1"], ["prop1 three-valued range"],
        "ker L = ker F at 353 pairs, expected 354", id="prop1-norms_match_off"),
    # the sweep's report loses its first slice a: the three paths and the
    # seven properties agree on the rest, and only the slice size p^k - chi(b),
    # which corollary2 and the Jacobsthal route of prop2 and r/s/t check, is
    # short, and prop1's count of the pairs off the slice, N.size minus the
    # slice, one too many
    pytest.param("""
import dataclasses
from charsum import expsum
real = expsum.distribution_sweep
def off(ctx, lb):
    rep = real(ctx, lb)
    return dataclasses.replace(rep, jacobsthal=rep.jacobsthal[1:])
expsum.distribution_sweep = off
""", ["--p", "3", "--k", "1"],
        ["prop2/eq8 triple path", "prop1 three-valued range", "corollary2 suite",
         "r/s/t distribution identities"],
        "1 slice pairs, expected 2", id="prop2-slice_a_dropped"),
    # one condition of the division route failed at every pair, by the
    # coefficient dlogs it reads: A^(p^k) zeroed, so that F = B X^(p^k) +
    # A X^(p^2k) has a double zero at 0 and does not split; the sign of
    # L's term b^(p^2k) X flipped, so that P = F/A no longer divides L; L
    # zeroed at pair 0 of each block, so that P divides it and every x is a
    # zero
    pytest.param(_PROP1_COEFFICIENTS_OFF.format("F[0] = -1"),
                 ["--p", "3", "--k", "1", "--b", "g^1"], ["prop1 three-valued range"],
                 "F does not split: its zeros span no space of dimension 2 over GF(3) "
                 "at a=0, b=g^1", id="prop1-F_kernel_dimension"),
    pytest.param(_PROP1_COEFFICIENTS_OFF.format("L[0] = (L[0] + ctx.order // 2) % ctx.order"),
                 ["--p", "3", "--k", "1", "--b", "g^1"], ["prop1 three-valued range"],
                 "P = F/A does not right-divide L: a zero of F is no zero of L at a=0, b=g^1",
                 id="prop1-L_term_sign"),
    pytest.param(_PROP1_COEFFICIENTS_OFF.format("L[:, 0] = -1"),
                 ["--p", "3", "--k", "1", "--b", "g^1"], ["prop1 three-valued range"],
                 "the zeros of L span a space of dimension above 2 over GF(3) at a=0, b=g^1",
                 id="prop1-L_kernel_dimension"),
    pytest.param("""
from charsum import expsum
real = expsum.corollary1_bulk
def off(*args):
    same = real(*args)
    same[5] = not same[5]
    return same
expsum.corollary1_bulk = off
""", ["--p", "3", "--k", "1"], ["corollary1 scaling"], "scaling failed at h = ",
        id="corollary1-one_result_flipped"),
    pytest.param("""
from charsum import expsum
real = expsum.corollary_properties
def off(ctx, report):
    out = real(ctx, report)
    out["iii"][0] = not out["iii"][0]
    return out
expsum.corollary_properties = off
""", ["--p", "3", "--k", "1"], ["corollary2 suite"], "properties ['iii'] failed at a = ",
        id="corollary2-one_property_flipped"),
    # (vi) switched off where its hypotheses hold: p = 3 mod 4, k odd and
    # b = g^0 a square; the other six properties still hold
    pytest.param("""
from charsum import expsum
expsum._special_a = lambda ctx, lb, chi_b: ()
""", ["--p", "3", "--k", "1"], ["corollary2 suite"],
        "property vi skipped at b = g^0, where p = 3 mod 4, k is odd and chi(b) = 1",
        id="corollary2-special_value_skipped"),
    # the sign of chi(b) flipped: the sweep's identity check fails every
    # check that reads a sweep before r/s/t compares its closed forms
    pytest.param("""
from charsum import expsum
real = expsum.chi
expsum.chi = lambda lb: -real(lb)
""", ["--p", "3", "--k", "1"], ["r/s/t distribution identities", *_EVERY_SWEEP_USER[:-1]],
        "distribution identities violated", id="rst-chi_flipped"),
    # the tallies moved after the sweep, r + 1 and s - 1: r + s + t and every
    # N stay, so only the closed forms from J2 see it
    pytest.param("""
import dataclasses
from charsum import expsum
real = expsum.distribution_sweep
def off(ctx, lb):
    rep = real(ctx, lb)
    return dataclasses.replace(rep, r=rep.r + 1, s=rep.s - 1)
expsum.distribution_sweep = off
""", ["--p", "3", "--k", "1"], ["r/s/t distribution identities"],
        "b=g^0: (r,s,t)=(47,24,8), closed forms (46,25,8) from J2 = 18, 8t = 64",
        id="rst-tallies_shifted"),
    # one spectrum coefficient multiplied by w: its index pointed at a
    # rotated copy of its value, -p^2k w^(j+1) for -p^2k w^j (the summary
    # stays as computed)
    pytest.param("""
import dataclasses
import numpy as np
from charsum import walsh
from charsum.cycint import CycInt
real = walsh.full_spectrum
def off(ctx, la, lb):
    s = real(ctx, la, lb)
    c, n = s.values[s.index[7]]
    index = s.index.copy()
    index[7] = len(s.values)
    j = (s.closed_j[s.index[7]] + 1) % ctx.p
    return dataclasses.replace(s, values=s.values + ((c * CycInt.omega_power(ctx.p, 1), n),),
                               index=index, closed_j=np.append(s.closed_j, j))
walsh.full_spectrum = off
""", ["--p", "3", "--k", "1"], ["theorem1 spectrum"], "formula failed",
        id="theorem1-coefficient_rotated"),
    # the root of y = g^41 (position 42 of the scan), whose square g^82 lies
    # in GF(81) and whose root is not 0, moved to another x of GF(9) with the
    # same absolute trace: the formula and the counts still hold
    pytest.param("""
from charsum import reference, walsh
real = walsh._root_polynomial
def off(ctx, y2, ypow, x):
    vals = real(ctx, y2, ypow, x)
    kview = ctx.subfield(ctx.params.k)
    root = next(z for z in reference.elements(kview)
                if real(ctx, y2[42:43], ypow[42:43], z.enc)[0] == 0)
    moved = next(z for z in reference.elements(kview) if z != root
                 and reference.abs_trace(kview, z) == reference.abs_trace(kview, root))
    if x in (root.enc, moved.enc):
        vals[42] = 0 if x == moved.enc else 1
    return vals
walsh._root_polynomial = off
""", ["--p", "3", "--k", "2"], ["theorem1 spectrum"], "special case failed at y=g^41",
        id="theorem1-special_case_root_moved"),
]


_HALF_FIELD_CHECKS = {"eq1 companion sum", "theorem2 jacobsthal bound", "curve count identity"}


@pytest.mark.parametrize("snippet, argv, failed, detail", FAULTS)
def test_failed_under_optimize(snippet, argv, failed, detail):
    code = (f"import sys\nfrom charsum import cli\n{snippet}\n"
            f"sys.exit(cli.run({['verify-all', *argv]!r}))\n")
    proc = _run_src("-O", "-c", code)
    assert proc.returncode == 1, proc.stderr
    lines = {line.split(":")[0][len("[FAIL] "):]: line
             for line in proc.stdout.splitlines() if line.startswith("[FAIL]")}
    assert set(lines) == set(failed) and len(failed) == len(set(failed))
    assert detail in lines[failed[0]]
    assert "Traceback" not in proc.stderr
    if failed[0] in _HALF_FIELD_CHECKS:
        # each g^e names an a of GF(p^2k) off GF(p^k): e a multiple of
        # p^2k + 1, the dlog step of GF(p^2k)* in GF(p^4k), and not of
        # (p^2k + 1)(p^k + 1), that of GF(p^k)*
        p, k = int(argv[argv.index("--p") + 1]), int(argv[argv.index("--k") + 1])
        step = p ** (2 * k) + 1
        logs = [int(e) for e in re.findall(r"g\^(\d+)", lines[failed[0]])]
        assert all(e % step == 0 and e % (step * (p ** k + 1)) for e in logs), logs
        # only a failed count of the a names none
        assert logs or re.fullmatch(r"\d+ elements, expected \d+", detail), lines[failed[0]]


def test_theorem1_verify_fails_through_identity_violation(capsys, monkeypatch):
    # the rotated coefficient in process: theorem1-verify exits 1 through the
    # runner's IdentityViolation path, with nothing on stdout
    snippet = next(f.values[0] for f in FAULTS if f.id == "theorem1-coefficient_rotated")
    monkeypatch.setattr(walsh, "full_spectrum", walsh.full_spectrum)  # restored after the test
    exec(snippet, {})
    assert run(["theorem1-verify", "--p", "3", "--k", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("verification failure: formula failed")


# xi = 1 + X over tables built on X: without the build's check, verify-all
# stays green at (3,1) with other labels
_XI_OFF_THE_TABLE = """
import inspect, textwrap
from charsum import field_core
source = textwrap.dedent(inspect.getsource(field_core.FieldCtx.__init__))
mutant = source.replace("((0, 1) + (0,) * (m - 2))", "((1, 1) + (0,) * (m - 2))")
if mutant == source:
    raise RuntimeError("FieldCtx.__init__ sets xi some other way")
namespace = dict(vars(field_core))
exec(mutant, namespace)
field_core.FieldCtx.__init__ = namespace["__init__"]
"""


def test_generator_off_the_exp_table_fails_the_build(monkeypatch):
    # the build refuses the context, so verify-all exits 1 before its first line
    monkeypatch.setattr(FieldCtx, "__init__", FieldCtx.__init__)  # restored after the test
    exec(_XI_OFF_THE_TABLE, {})
    with pytest.raises(InvariantViolation, match="is not the generator of the exp table"):
        build_context(FieldParams(3, 1), 4)
    monkeypatch.undo()
    proc = _run_src("-c", f"import sys\nfrom charsum import cli\n{_XI_OFF_THE_TABLE}\n"
                          "sys.exit(cli.run(['verify-all', '--p', '3', '--k', '1']))\n")
    assert proc.returncode == 1 and proc.stdout == "", proc.stdout
    assert proc.stderr.startswith("verification failure: xi = "), proc.stderr


def test_every_check_has_a_fault(capsys):
    # each of the twelve checks of a green run is failed by some fault above
    assert run(["verify-all", "--p", "3", "--k", "1"]) == 0
    names = [line.split(":")[0][len("[ok  ] "):] for line in _lines(capsys)
             if line.startswith("[ok  ]")]
    covered = {name for fault in FAULTS for name in fault.values[2]}
    assert len(names) == 12 and set(names) <= covered, sorted(set(names) - covered)


def test_cli_names_no_private_attribute_of_another_module():
    # the CLI calls the library only through its public routes
    tree = ast.parse((SRC / "charsum" / "cli.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.level == 1]
    modules = {a.asname or a.name for node in imports if node.module is None
               for a in node.names}
    private = lambda name: name.startswith("_") and not name.startswith("__")
    offenders = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules and private(node.attr)]
    offenders += [a.name for node in imports for a in node.names if private(a.name)]
    assert len(modules) >= 5 and offenders == []


def test_only_field_core_spells_an_element_name():
    # every "g^e" name is written by field_core.label, next to the parser
    # that reads it back
    spelled = {path.name: path.read_text().count("g^{")
               for path in sorted((SRC / "charsum").glob("*.py"))}
    assert spelled.pop("field_core.py") == 1 and len(spelled) >= 10
    assert {name: n for name, n in spelled.items() if n} == {}


def test_prop1_counts_the_pairs_compared(capsys, monkeypatch):
    # prop1 fails unless it compared every norms-differ a of the swept b
    # (77 at p = 3, k = 1) plus the SAMPLES pairs
    real = expsum.prop1_kernel_check
    monkeypatch.setattr(expsum, "prop1_kernel_check", lambda *args: real(*args) - 1)
    monkeypatch.setattr(cli, "SAMPLES", 5)
    assert run(["verify-all", "--p", "3", "--k", "1", "--b", "g^1"]) == 1
    assert "[FAIL] prop1 three-valued range: ker L = ker F at 81 pairs, expected 82" in (
        capsys.readouterr().out)


def test_prop1_range_count_is_compared(capsys, monkeypatch):
    # the pairs that the sweep's range check covered, N.size minus the
    # slice, against r + s + t and q - p^k + chi(b): one extra N entry
    # fails prop1 alone
    real = expsum.distribution_sweep
    monkeypatch.setattr(expsum, "distribution_sweep", lambda ctx, lb: dataclasses.replace(
        real(ctx, lb), N=np.append(real(ctx, lb).N, 0)))
    assert run(["verify-all", "--p", "3", "--k", "1", "--b", "g^1"]) == 1
    assert [line for line in _lines(capsys) if line.startswith("[FAIL]")] == [
        "[FAIL] prop1 three-valued range: N <= 2 at 78 pairs, r + s + t = 77, expected 77 "
        "at b = g^1"]


@pytest.mark.parametrize("start, failed", [
    ("        n_pairs = 0\n", "[FAIL] prop2/eq8 triple path: 5 pairs, expected 4"),
    ("        n_pairs, sums, with_vi = 0, 0, 0\n",
     "[FAIL] corollary2 suite: 5 pairs x i-v, expected 4"),
], ids=["prop2", "corollary2"])
def test_pair_counters_are_compared(capsys, monkeypatch, start, failed):
    # prop2's and corollary2's pair counters against the sum over b of
    # p^k - chi(b): each counter started at 1 fails its own check alone
    source = inspect.getsource(cli._run_verify_all)
    assert source.count(start) == 1
    namespace = dict(vars(cli))
    exec(source.replace(start, start.replace("0", "1", 1)), namespace)
    monkeypatch.setattr(cli, "_run_verify_all", namespace["_run_verify_all"])
    assert run(["verify-all", "--p", "3", "--k", "1", "--b", "g^1"]) == 1
    assert [line for line in _lines(capsys) if line.startswith("[FAIL]")] == [failed]


def test_corollary2_refuses_property_vi_off_its_hypotheses(capsys, monkeypatch):
    # b = g^1 is a nonsquare, so (vi) does not apply: a result for it fails
    # corollary2 even where every pair passes
    real = expsum.corollary_properties

    def off(ctx, report):
        out = real(ctx, report)
        out["vi"] = np.ones_like(out["i"]) if out["vi"] is None else out["vi"]
        return out

    monkeypatch.setattr(expsum, "corollary_properties", off)
    assert run(["verify-all", "--p", "3", "--k", "1", "--b", "g^1"]) == 1
    assert ("[FAIL] corollary2 suite: property vi evaluated at b = g^1, where p = 3 mod 4, "
            "k is odd and chi(b) = 1 do not all hold") in capsys.readouterr().out


@pytest.mark.parametrize("name, failed", [
    ("N_via_nonsquares_bulk", "[FAIL] prop2/eq8 triple path: paths evaluated"),
    ("N_via_jacobsthal_bulk", "[FAIL] prop2/eq8 triple path: paths evaluated"),
    ("corollary1_bulk", "[FAIL] corollary1 scaling: 4 triples evaluated, expected 5"),
    ("corollary_properties", "[FAIL] corollary2 suite: "),
])
def test_batched_checks_count_the_pairs(capsys, monkeypatch, name, failed):
    # prop2, corollary1 and corollary2 fail unless their batches evaluated
    # every pair: here each batch drops its last one
    real = getattr(expsum, name)

    def short(*args):
        out = real(*args)
        if isinstance(out, dict):
            return {key: ok if ok is None else ok[:-1] for key, ok in out.items()}
        return out[:-1]

    monkeypatch.setattr(expsum, name, short)
    monkeypatch.setattr(cli, "SAMPLES", 5)
    assert run(["verify-all", "--p", "3", "--k", "1", "--b", "g^1"]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    # r/s/t reads J2 from the Jacobsthal route's N
    expected = [failed] + (["[FAIL] r/s/t distribution identities: b=g^1: "]
                           if name == "N_via_jacobsthal_bulk" else [])
    assert len(lines) == len(expected) and all(map(str.startswith, lines, expected)), lines
    if name == "corollary_properties":
        assert "pairs evaluated, expected" in lines[0]


def test_failed_distribution_identities(capsys, monkeypatch):
    # with the sign of chi(b) flipped, the sweep's identity check must raise,
    # and verify-all must fail theorem3 and r/s/t on it and exit 1
    real = expsum.chi
    monkeypatch.setattr(expsum, "chi", lambda lb: -real(lb))
    with pytest.raises(OracleMismatch, match="distribution identities violated"):
        expsum.distribution_sweep(context(3, 1), 0)
    assert run(["verify-all", "--p", "3", "--k", "1"]) == 1
    failed = {line.split(":")[0]: line for line in _lines(capsys) if line.startswith("[FAIL]")}
    for name in ("theorem3 oracle equivalence", "r/s/t distribution identities"):
        assert "distribution identities violated" in failed[f"[FAIL] {name}"]


def test_module_entry_point():
    # python -m charsum runs the CLI from an uninstalled source tree
    proc = _run_src("-m", "charsum", "verify-all", "--p", "3", "--k", "1")
    assert proc.returncode == 0, proc.stderr
    assert "all identities verified" in proc.stdout


def test_no_command_loads_the_references():
    # every subcommand at (3, 1), stdout discarded: charsum.reference stays
    # off the command path
    code = """
import os, sys
from contextlib import redirect_stdout
from charsum import cli
extra = {"expsum": ["--a", "g^0", "--b", "g^0"], "expsum-sweep": ["--b", "g^1"],
         "walsh-spectrum": ["--a", "g^0", "--b", "g^0"]}
commands = sorted(cli.build_parser().get_default("_handlers"))
assert len(commands) == 9, commands
with open(os.devnull, "w") as null, redirect_stdout(null):
    for cmd in commands:
        assert cli.run([cmd, "--p", "3", "--k", "1", *extra.get(cmd, [])]) == 0, cmd
print("charsum.reference" in sys.modules)
"""
    proc = _run_src("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# why a package function that no command enters stays
_PINNED = "perfbench-pinned reference"  # perfbench/ names it, or a function named there uses it
_ELEMENT = "element vocabulary"         # charsum.reference computes with it
_ERROR = "error path"                   # runs only to build or raise an error
_REPR = "repr"                          # a rendering for the interactive prompt
_UNREACHED = {
    "cycint": {"CycInt.__setattr__": _ERROR, "CycInt.integer": _ELEMENT,
               "CycInt.__repr__": _REPR},
    "expsum": {"_where": _ERROR, "L_eval": _PINNED, "_L_terms": _PINNED, "N_count": _PINNED,
               "_require_jacobsthal": _PINNED, "jacobsthal_pairs": _PINNED,
               "_special_pair_violation": _ERROR, "corollary_suite": _PINNED,
               "_oracle_mismatch": _ERROR},
    "field_core": {"Elem.__setattr__": _ERROR, "Elem.coeffs": _ERROR, "Elem.__sub__": _ELEMENT,
                   "Elem.__neg__": _ELEMENT, "Elem.__truediv__": _ELEMENT,
                   "Elem.inverse": _PINNED, "Elem.__eq__": _ELEMENT, "Elem.__str__": _ERROR,
                   "Elem.__repr__": _ERROR, "FieldCtx.sub_enc": _ELEMENT,
                   "FieldCtx.neg_enc_one": _ELEMENT, "FieldCtx.inv_enc": _ELEMENT,
                   "FieldCtx.format_element": _ERROR, "FieldCtx.powers": _PINNED,
                   "FieldCtx.__repr__": _REPR, "SubfieldView.__repr__": _REPR},
}


def test_reach_census():
    # every subcommand at (3, 1) in one process under sys.setprofile, with
    # both element syntaxes and both --format values, and expsum --force
    # through cli.main: the top-level functions and methods of the package
    # that none of them enters are the listed ones; charsum.reference, which
    # no command imports, is left out
    code = """
import ast, json, os, sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
import charsum
from charsum import cli
package = str(Path(charsum.__file__).resolve().parent)
entered = set()
def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        entered.add((Path(frame.f_code.co_filename).stem, frame.f_code.co_qualname))
runs = [["cyclotomy-table"], ["cyclotomy-table", "--format", "csv"], ["pt-sums"],
        ["jacobsthal-scan"], ["expsum", "--a", "g^1", "--b", "1,0,0,0"],
        ["expsum-sweep", "--b", "0,1"], ["walsh-spectrum", "--a", "0,1", "--b", "g^0"],
        ["theorem1-verify"], ["sequences-crosscorr"], ["sequences-crosscorr", "--format", "csv"],
        ["verify-all"]]
assert len({argv[0] for argv in runs}) == len(cli.build_parser().get_default("_handlers"))
sys.argv = ["charsum", "expsum", "--a", "g^1", "--b", "1,0,0,0", "--p", "3", "--k", "1", "--force"]
with open(os.devnull, "w") as null, redirect_stdout(null), redirect_stderr(null):
    sys.setprofile(profile)
    codes = [cli.run([*argv, "--p", "3", "--k", "1"]) for argv in runs]
    try:
        cli.main()
    except SystemExit as exc:
        codes.append(exc.code)
    sys.setprofile(None)
assert codes == [0] * (len(runs) + 1), codes
missed = {}
for path in sorted(Path(package).glob("*.py")):
    if path.stem == "reference":
        continue
    body = ast.parse(path.read_text()).body
    names = [node.name for node in body if isinstance(node, ast.FunctionDef)]
    names += [f"{node.name}.{f.name}" for node in body if isinstance(node, ast.ClassDef)
              for f in node.body if isinstance(f, ast.FunctionDef)]
    names = [name for name in names if (path.stem, name) not in entered]
    if names:
        missed[path.stem] = sorted(names)
print(json.dumps(missed))
"""
    proc = _run_src("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {module: sorted(names)
                                       for module, names in _UNREACHED.items()}


def test_census_tags_hold():
    # no census entry stays because tests call it: each is an error path, a
    # __repr__, a name that perfbench pins or an element operation that
    # charsum.reference computes with, and each of the last two tags holds
    tagged = [(module, name, tag) for module, entries in _UNREACHED.items()
              for name, tag in entries.items()]
    assert {tag for _, _, tag in tagged} == {_PINNED, _ELEMENT, _ERROR, _REPR}
    assert all(name.endswith(".__repr__") for _, name, tag in tagged if tag == _REPR)
    # pinned: named in perfbench/, or used in the body of a package function
    # that perfbench names
    perfbench = "\n".join(path.read_text() for path in (SRC.parent / "perfbench").glob("*.py"))
    used = set()
    for path in (SRC / "charsum").glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if (isinstance(fn, ast.FunctionDef)
                    and re.search(rf"\b{path.stem}\.{fn.name}\b", perfbench)):
                used |= {getattr(node, "id", None) or getattr(node, "attr", None)
                         for node in ast.walk(fn)}
    unpinned = [name for module, name, tag in tagged if tag == _PINNED
                and not re.search(rf"\b{module}\.{name}\b", perfbench)
                and name.rsplit(".", 1)[-1] not in used]
    assert unpinned == []
    # element vocabulary: entered by reference routes that take one element
    # or one pair at a time
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(f"{Path(frame.f_code.co_filename).stem}.{frame.f_code.co_qualname}")

    ctx = context(3, 1)
    pair = expsum.CoeffPair(expsum.jacobsthal_pairs(ctx, ctx.one)[0], ctx.one)
    sys.setprofile(profile)
    try:
        reference.find_g(ctx, pair)
        reference.decompose_half_basis(ctx.subfield(2), ctx.xi ** 10)
        reference.s0_relation_report(ctx)
    finally:
        sys.setprofile(None)
    vocabulary = {f"{module}.{name}" for module, name, tag in tagged if tag == _ELEMENT}
    assert vocabulary <= entered, sorted(vocabulary - entered)


def _table_branches():
    # the FieldCtx methods whose bodies read self.has_tables
    tree = ast.parse((SRC / "charsum" / "field_core.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "FieldCtx")
    return [fn.name for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and any(isinstance(node, ast.Attribute) and node.attr == "has_tables"
                    and isinstance(node.ctx, ast.Load) for node in ast.walk(fn))]


def test_every_table_branch_is_on_a_command_path(capsys, monkeypatch):
    # a FieldCtx method asks which kind a context is only where some command
    # calls it on a table context; every other method has one body, which on
    # a table context is the reference of a bulk primitive (scalar add and
    # trace) or is built on the methods that branch
    branches = _table_branches()
    calls = dict.fromkeys(branches, 0)

    def counting(name):
        real = getattr(FieldCtx, name)

        def counted(self, *args, **kwargs):
            calls[name] += self.has_tables
            return real(self, *args, **kwargs)
        return counted

    for name in branches:
        monkeypatch.setattr(FieldCtx, name, counting(name))
    extra = {"expsum": ["--a", "g^0", "--b", "g^0"], "expsum-sweep": ["--b", "g^1"],
             "walsh-spectrum": ["--a", "g^0", "--b", "g^0"]}
    commands = sorted(cli.build_parser().get_default("_handlers"))
    for cmd in commands:
        assert run([cmd, "--p", "3", "--k", "1", *extra.get(cmd, [])]) == 0, cmd
    capsys.readouterr()
    assert len(commands) == 9 and "mul_enc" in branches
    assert [name for name, n in calls.items() if not n] == []


def test_export_stops_quietly_when_its_reader_does():
    # a reader that takes one line and closes the pipe: the export exits 141,
    # as a writer killed by SIGPIPE does, with nothing on stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "charsum", "expsum-sweep", "--p", "3", "--k", "2", "--b", "g^1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
    try:
        assert proc.stdout.readline().startswith(b'{"context"')
        proc.stdout.close()
        assert proc.wait(timeout=300) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_every_reference_is_called_by_a_test():
    # a reference route stays only while it cross-checks another route: each
    # public function of charsum.reference is called in some file of tests/
    tree = ast.parse((SRC / "charsum" / "reference.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for path in Path(__file__).resolve().parent.glob("*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        # the names this file binds to the module, and to its functions
        module_names, function_names = set(), {}
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "charsum":
                module_names |= {a.asname or a.name for a in node.names if a.name == "reference"}
            if isinstance(node, ast.ImportFrom) and node.module == "charsum.reference":
                function_names.update((a.asname or a.name, a.name) for a in node.names)
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id in module_names):
                called.add(func.attr)
            elif isinstance(func, ast.Name) and func.id in function_names:
                called.add(function_names[func.id])
    assert len(public) >= 10 and public <= called, sorted(public - called)
