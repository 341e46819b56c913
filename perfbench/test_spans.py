"""Self-time and per-key arithmetic on a synthetic nested span set.

Runs under pytest, or directly: python3 perfbench/test_spans.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import (  # noqa: E402
    Span, calls, calls_per_key, layer_self_seconds, total_seconds, total_work)

# run "r1":
#   1 walsh.theorem1_verify   [0, 10]
#     2 walsh.walsh_coeff     [1, 4]   key y1
#       3 cycint.from_counts  [2, 3]
#     4 walsh.walsh_coeff     [5, 6]   key y1   (repeat of the same point)
#     5 expsum.N_count        [7, 9]   key P
#       6 field_core.add_enc_bulk [7.5, 8]  work 81
# run "r2" (another process, the same key again counts as new work):
#   1 walsh.walsh_coeff       [0, 2]   key y1
#     2 field_core.add_enc_bulk [0.5, 1]  work 19
SPANS = [
    Span("r1", 1, 0, "walsh.theorem1_verify", 0.0, 10.0),
    Span("r1", 2, 1, "walsh.walsh_coeff", 1.0, 4.0, "y1"),
    Span("r1", 3, 2, "cycint.from_counts", 2.0, 3.0),
    Span("r1", 4, 1, "walsh.walsh_coeff", 5.0, 6.0, "y1"),
    Span("r1", 5, 1, "expsum.N_count", 7.0, 9.0, "P"),
    Span("r1", 6, 5, "field_core.add_enc_bulk", 7.5, 8.0, None, 81),
    Span("r2", 1, 0, "walsh.walsh_coeff", 0.0, 2.0, "y1"),
    Span("r2", 2, 1, "field_core.add_enc_bulk", 0.5, 1.0, None, 19),
]


def test_layer_self_seconds():
    got = layer_self_seconds(SPANS)
    # walsh: theorem1_verify 10 - (3 + 1 + 2) = 4, walsh_coeff (3 - 1) + 1,
    # and in r2 2 - 0.5
    assert got == {"walsh": 4.0 + 2.0 + 1.0 + 1.5, "cycint": 1.0,
                   "expsum": 1.5, "field_core": 1.0}
    # self times partition the top-level spans: 10 s in r1 and 2 s in r2
    assert sum(got.values()) == 12.0


def test_counts_and_totals():
    assert calls(SPANS, "walsh.walsh_coeff") == 3
    assert total_seconds(SPANS, "walsh.walsh_coeff") == 3.0 + 1.0 + 2.0
    assert total_work(SPANS, "field_core.add_enc_bulk") == 100
    assert calls(SPANS, "sequences.cross_correlation") == 0


def test_calls_per_key():
    # r1 asks for y1 twice, r2 once: 3 calls over 2 distinct (run, key) items
    assert calls_per_key(SPANS, "walsh.walsh_coeff") == 1.5
    assert calls_per_key(SPANS, "expsum.N_count") == 1.0
    assert calls_per_key(SPANS, "expsum.classify") == 0.0


def test_install_rebinds_every_namespace():
    # in a child process, so the wrapped package never leaks into this one
    probe = """
import functools, sys
sys.path.insert(0, sys.argv[1])
import child
sys.path.insert(0, str(child.SRC))
seen = []
def wrap(name, fn):
    @functools.wraps(fn)
    def probed(*args, **kwargs):
        seen.append(name)
        return fn(*args, **kwargs)
    probed.probed = True
    return probed
child.install(wrap)
import charsum
from charsum import cli, expsum, field_core, sequences
from charsum.cycint import CycInt
for fn in (cli.build_context, cli.context, charsum.build_context,
           sequences.S0_bruteforce, expsum.S0_bruteforce, expsum.N_count,
           field_core.FieldCtx.add_enc_bulk, CycInt.from_counts, cli.run):
    assert getattr(fn, "probed", False), fn
assert not hasattr(expsum.L_eval, "probed")
assert CycInt.from_counts(3, [1, 0, 0]) == 1
ctx = field_core.context(3, 1)
a = expsum.jacobsthal_pairs(ctx, ctx.one)[0]
expsum.corollary_suite(ctx, expsum.CoeffPair(a, ctx.one))
print(" ".join(seen))
"""
    import subprocess
    here = Path(__file__).resolve().parent
    out = subprocess.run([sys.executable, "-c", probe, str(here)], capture_output=True,
                         text=True, timeout=120, check=True).stdout.split()
    # context -> build_context and the intra-module calls of corollary_suite
    # reach the wrappers through the module globals
    assert {"field_core.context", "field_core.build_context", "expsum.N_count",
            "expsum.corollary_eq9_check", "expsum.case_detail"} <= set(out)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    print("ok")
