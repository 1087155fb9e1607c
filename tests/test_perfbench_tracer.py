"""The benchmark's tracer wraps balancepack functions by name.

A function named in its tables that is deleted or renamed fails here, in
the tier-1 suite, and not only in the benchmark's own self-check.
"""

from pathlib import Path

import balancepack
from balancepack import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_every_named_function(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import COUNTER_FUNCTIONS, SPAN_FUNCTIONS, Tracer

    named = [
        (getattr(balancepack, mod), fn)
        for table in (SPAN_FUNCTIONS, COUNTER_FUNCTIONS)
        for mod, fns in table.items()
        for fn in fns
    ]
    originals = [getattr(mod, fn) for mod, fn in named]
    with Tracer(balancepack) as tracer:
        assert all(getattr(mod, fn) is not f for (mod, fn), f in zip(named, originals))
        assert cli.main(["synth", "--output", str(tmp_path / "s"), "--n", "50"]) == 0
    capsys.readouterr()
    assert all(getattr(mod, fn) is f for (mod, fn), f in zip(named, originals))
    spans = {s.name for s in tracer.spans}
    assert {"cli.main", "manifest.synth_corpus", "concepts.save_assignments"} <= spans
