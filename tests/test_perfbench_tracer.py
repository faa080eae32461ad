"""The benchmark's traced run wraps module bindings of the package's public
functions and fails when one it requires is missing.  This test runs the
same check, so a refactor that drops such a binding fails here too."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_reaches_every_required_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    def wrapped():
        return {f"{mod}.{name}": getattr(getattr(sys.modules[f"hdrpcal.{mod}"], name),
                                         "__wrapped_by_tracer__", False)
                for mod, name in spans.REQUIRED_BINDINGS}

    tracer = spans.Tracer()
    try:
        tracer.install()  # raises RuntimeError naming any missed binding
        missed = [name for name, ok in wrapped().items() if not ok]
    finally:
        tracer.uninstall()
    assert missed == []
    assert not any(wrapped().values())
