"""The benchmark's tracer wraps ggt functions and FinGroup methods by
name, so installing it here catches a renamed or deleted one in
milliseconds, ahead of the slow perfbench/test_smoke.py."""

import importlib.util
from pathlib import Path

import ggt
import ggt.cli  # noqa: F401  (the tracer wraps ggt.cli.main)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.Tracer()


def test_tracer_installs_and_uninstalls():
    tracer = _tracer()
    methods = dict(vars(ggt.FinGroup))
    functions = (ggt.metacyclic, ggt.is_type_np, ggt.fingroup.is_type_npl)
    try:
        tracer.install(ggt)
        assert vars(ggt.FinGroup)["to_json"] is not methods["to_json"]
        report = ggt.metacyclic(6, 7).to_json(d=6, type_np=(6, 7), ell=5)
        # metacyclic builds from its presentation; the product closes
        product = ggt.direct_product(ggt.cyclic(4), ggt.metacyclic(6, 7))
    finally:
        tracer.uninstall()
    assert report["type_np"]["up_to_ell_core"] is True
    assert product.order == 168
    assert {f"fingroup.{name}" for name in (
        "generate", "conjugacy_classes", "normal_subgroups",
        "commutator_subgroup", "abelianization", "quotient", "to_json",
        "metacyclic", "is_type_np", "is_type_npl")} <= set(tracer.durations)
    assert tracer.counts["fingroup.elements"] > 0
    assert dict(vars(ggt.FinGroup)) == methods
    assert (ggt.metacyclic, ggt.is_type_np,
            ggt.fingroup.is_type_npl) == functions
