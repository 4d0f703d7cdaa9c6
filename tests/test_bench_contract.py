"""The package names the benchmark in ``perfbench/`` reaches into.

The traced benchmark wraps functions and methods by name
(``stonevn.outer_intertwiner_2``, ``repkit.closure``, ...) and the kernel
measurement reads the F_q kernel directly.  A refactor that deletes or
renames one of them breaks the benchmark, not the package, so it is checked
here: installing the tracer fails on a missing name.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_kernel_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()

    from hypermono import weilgl
    from hypermono.algebra import fq

    assert isinstance(weilgl.ELEMENT_SCAN_CAP, int)
    assert callable(fq._kernel.mat_mul) and callable(fq._kernel.mat_rank)
    assert isinstance(fq.KERNEL_IMPLEMENTATION, str)
