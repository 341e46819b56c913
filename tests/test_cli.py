import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from charsum import expsum, jacobsthal, reference
from charsum.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"


def _lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_verify_all_31(capsys):
    assert run(["verify-all", "--p", "3", "--k", "1", "--samples", "50"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok  ]") == 12
    assert "all identities verified" in out
    assert "seed=" in out


def test_verify_all_scans_jacobsthal_once(capsys, monkeypatch):
    # eq1, theorem2 and curve read one Jacobsthal bound scan, which reads
    # every record from one table of eta and calls no per-a I_sum
    calls = {"theorem2_scan": 0, "scan_table": 0, "I_sum": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in calls:
        module = reference if name == "I_sum" else jacobsthal
        monkeypatch.setattr(module, name, counting(module, name))
    assert run(["verify-all", "--p", "3", "--k", "1"]) == 0
    assert capsys.readouterr().out.count("[ok  ]") == 12
    assert calls == {"theorem2_scan": 1, "scan_table": 1, "I_sum": 0}


def test_expsum_record(capsys):
    assert run(["expsum", "--p", "3", "--k", "1", "--a", "g^0", "--b", "g^0"]) == 0
    header, record = (json.loads(s) for s in _lines(capsys))
    assert header["schema"] == "charsum.expsum/1"
    assert header["context"]["modulus"] == "2,1,0,0,1"
    assert record == {"a": "g^0", "b": "g^0", "tag": "SQUARE_MATCH",
                      "N": 0, "S0": -9, "witnesses": []}


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
    args = ["verify-all", "--p", "3", "--k", "1", "--samples", "20", "--seed", "42"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    # the only nondeterminism would be timing; strip the per-check timings
    strip = lambda text: [line.split(" (")[0] for line in text.splitlines()]
    assert strip(first) == strip(second)


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
        ["pt-sums", "--p", "3", "--k", "1", "--format", "csv"],  # json only
        ["verify-all", "--p", "3", "--k", "1", "--b", "0"],
        ["verify-all", "--p", "3", "--k", "1", "--b", "g^1;g^1"],  # repeated b
        ["verify-all", "--p", "3", "--k", "1", "--samples", "0"],
        ["verify-all", "--p", "3", "--k", "1", "--samples", "-3"],
        ["pt-sums", "--p", "3", "--k", "1", "--guard", "10"],  # --force is the only override
    ):
        assert run(argv) == 2, argv
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


def _run_src(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


def test_failed_range_check_under_optimize():
    # python -O strips asserts: with every pair tallied as three-valued, the
    # sweep's N <= 2 check must still fail theorem3 and exit 1, not crash
    code = ("import sys, numpy; from charsum import cli, expsum; "
            "expsum.case_tags = lambda ctx, b: numpy.zeros(ctx.q, dtype=numpy.int8); "
            "sys.exit(cli.run(['verify-all', '--p', '3', '--k', '1', '--b', 'g^1']))")
    proc = _run_src("-O", "-c", code)
    assert proc.returncode == 1, proc.stderr
    assert any(line.startswith("[FAIL] theorem3") for line in proc.stdout.splitlines())
    assert "Traceback" not in proc.stderr


def test_failed_prop1_under_optimize():
    # python -O: with the sign of one term of F flipped, the kernel check
    # must fail prop1 and exit 1
    code = ("import sys; from charsum import cli, expsum; "
            "real = expsum._F_monomials; "
            "expsum._F_monomials = lambda ctx: ((-real(ctx)[0][0],) + real(ctx)[0][1:],) "
            "+ real(ctx)[1:]; "
            "sys.exit(cli.run(['verify-all', '--p', '3', '--k', '1', '--b', 'g^1']))")
    proc = _run_src("-O", "-c", code)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("[FAIL]")] == [
        "[FAIL] prop1 three-valued range"]
    assert "zeros of L and F span" in next(line for line in lines if line.startswith("[FAIL]"))
    assert "Traceback" not in proc.stderr


def test_failed_bound_scan_under_optimize():
    # python -O: an H beyond the Hasse bound must fail the three checks that
    # read the bound scan and exit 1
    code = ("import sys\n"
            "from charsum import cli, jacobsthal\n"
            "real = jacobsthal.scan_table\n"
            "def inflated(view):\n"
            "    logs, H, I, I2, curve_N = real(view)\n"
            "    return logs, 100 * H, I, I2, curve_N\n"
            "jacobsthal.scan_table = inflated\n"
            "sys.exit(cli.run(['verify-all', '--p', '3', '--k', '1']))\n")
    proc = _run_src("-O", "-c", code)
    assert proc.returncode == 1, proc.stderr
    failed = [line.split(":")[0] for line in proc.stdout.splitlines() if line.startswith("[FAIL]")]
    assert failed == ["[FAIL] eq1 companion sum", "[FAIL] theorem2 jacobsthal bound",
                      "[FAIL] curve count identity"]
    assert "Traceback" not in proc.stderr


def test_prop1_counts_the_pairs_compared(capsys, monkeypatch):
    # prop1 fails unless it compared every norms-differ a of the swept b
    # (77 at p = 3, k = 1) plus the --samples pairs
    real = expsum.prop1_kernel_check
    monkeypatch.setattr(expsum, "prop1_kernel_check", lambda *args: real(*args) - 1)
    assert run(["verify-all", "--p", "3", "--k", "1", "--b", "g^1", "--samples", "5"]) == 1
    assert "[FAIL] prop1 three-valued range: ker L = ker F at 81 pairs, expected 82" in (
        capsys.readouterr().out)


@pytest.mark.parametrize("drop_parity", [False, True])
def test_failed_addition_table_under_optimize(drop_parity):
    # python -O: one wrong entry of the half-width addition table, set after
    # its build-time self-check, must fail verify-all with exit 1; the
    # per-pair parity check of the direct count catches it, and without that
    # check the cross-check against the N table still does
    code = ("import inspect, sys\n"
            "from charsum import cli, expsum, field_core\n"
            f"if {drop_parity}:\n"
            "    source = inspect.getsource(expsum.N_count_bulk)\n"
            "    assert 'if odd.size:' in source\n"
            "    exec(source.replace('if odd.size:', 'if False:'), vars(expsum))\n"
            "ctx = field_core.context(3, 2)\n"
            "s = ctx.add_side\n"
            "ctx.add_table[s + 2] = (ctx.add_table[s + 2] + 1) % s\n"
            "sys.exit(cli.run(['verify-all', '--p', '3', '--k', '2']))\n")
    proc = _run_src("-O", "-c", code)
    assert proc.returncode == 1, proc.stderr
    theorem3 = next(line for line in proc.stdout.splitlines() if "theorem3" in line)
    assert theorem3.startswith("[FAIL]")
    assert ("direct zero count" if drop_parity else "zeros of L on U at") in theorem3
    assert "Traceback" not in proc.stderr


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
    assert run(["verify-all", "--p", "3", "--k", "1", "--b", "g^1", "--samples", "5"]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert len(lines) == 1 and lines[0].startswith(failed), lines
    if name == "corollary_properties":
        assert "pairs evaluated, expected" in lines[0]


def test_failed_class_sums_under_optimize():
    # python -O: a class sum P_0 off by one must fail the pt check and exit 1
    code = ("import sys; from charsum import cli, cyclotomy; "
            "real = cyclotomy.CycInt; "
            "cyclotomy.CycInt = type('Off', (real,), {'from_counts': classmethod("
            "lambda cls, p, c: real.from_counts(p, [c[0] + 1] + list(c[1:])))}); "
            "sys.exit(cli.run(['verify-all', '--p', '3', '--k', '1']))")
    proc = _run_src("-O", "-c", code)
    assert proc.returncode == 1, proc.stderr
    assert any(line.startswith("[FAIL] pt class sums") for line in proc.stdout.splitlines())
    assert "Traceback" not in proc.stderr


def test_failed_theorem1_under_optimize():
    # python -O: one spectrum coefficient multiplied by w (its count row
    # rotated by one place) must fail theorem1's closed form and exit 1 (the
    # value counts stay the same)
    code = ("import sys, dataclasses, numpy\n"
            "from charsum import cli, walsh\n"
            "real = walsh.full_spectrum\n"
            "def off(ctx, pair):\n"
            "    s = real(ctx, pair)\n"
            "    c = s.counts.copy()\n"
            "    c[7] = numpy.roll(c[7], 1)\n"
            "    return dataclasses.replace(s, counts=c)\n"
            "walsh.full_spectrum = off\n"
            "sys.exit(cli.run(['verify-all', '--p', '3', '--k', '1']))\n")
    proc = _run_src("-O", "-c", code)
    assert proc.returncode == 1, proc.stderr
    assert any(line.startswith("[FAIL] theorem1 spectrum") for line in proc.stdout.splitlines())
    assert "Traceback" not in proc.stderr


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
