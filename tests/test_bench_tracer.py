"""The benchmark tracer against the current package.

``bench/tracer.py`` wraps phinabla's functions and the arithmetic methods
of PadicNumber and LaurentElement by name, and reads the ``cap`` argument
of ``horizontal_sections``: a rename in ``src/`` that drops one of them
breaks only ``bench/run.py --trace 1``.  This installs the tracer around
three calls and removes it again.
"""

import importlib
import pathlib
import sys

from phinabla import corpus
from phinabla.diagnostics import rank_profile
from phinabla.extraction import wd_extract
from phinabla.modules import horizontal_sections


BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _tracer_module():
    """bench/tracer.py, imported with bench/ on sys.path for the import
    only; sys.path and sys.modules are left as they were."""
    path, known = list(sys.path), "tracer" in sys.modules
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path[:] = path
        if not known:
            sys.modules.pop("tracer", None)


def test_bench_tracer_installs_counts_and_removes():
    path = list(sys.path)
    tracer = _tracer_module().Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        wd_extract(corpus.kummer_tate())
        horizontal_sections(corpus.kummer_tate())
        rank_profile(corpus.tate_abelian_datum())
    finally:
        tracer.remove()
    assert sys.path == path
    assert patches and not tracer._patches
    # every patched name holds its original again
    assert all(vars(owner)[attr] is original
               for owner, attr, original in patches)
    # only the package's own references are wrapped: the call above through
    # this module's name is not seen, rank_profile's is, with its `cap`
    metrics = tracer.layer_metrics()
    assert metrics["modules.horizontal_sections.calls"] == 1
    assert len(tracer.section_inputs) == 1
    assert tracer.calls("extraction.wd_extract") == 0
    assert tracer.calls("modules.kummer_pullback") == 1
    assert tracer.calls("diagnostics.rank_profile") == 0
