"""The benchmark's tracer still finds every call site it wraps.

`perfbench/tracing.py` replaces module attributes of the package by name
and reads the counts from their arguments and return values.  A rename
in the package would otherwise surface only when the benchmark runs.
"""
import importlib.util
from pathlib import Path

import pytest

from schemarith import cli
from schemarith.corpus import CORPUS

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists(tracing):
    for owner, attr, name, _ in tracing._targets():
        assert callable(getattr(owner, attr, None)), (owner, attr, name)


def test_traced_corpus_pass_leaves_every_span_and_count(tracing, tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    path.write_text("\n\n".join(p.text for p in CORPUS) + "\n", encoding="utf-8")
    tracer = tracing.Tracer()
    with tracer.installed():
        for args in (["--format", "json"], ["--trace"]):
            assert cli.main(["solve", str(path), *args]) in (0, 3, 4)
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    assert tracing.PROBLEM_SPAN in names
    assert set(tracing.SELF_TIME_METRICS) <= names
    assert len(tracer.counts) == 2 * len(CORPUS)
    for count in ("discourse.timelines", tracing.EVENTS):
        assert sum(problem[count] for problem in tracer.counts) > 0, count
