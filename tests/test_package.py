"""The package namespace is exactly the union of the module export lists."""

import inspect
import math

import mdtail
from mdtail import exponents, rate, report, scale, simulate, tails

MODULES = (scale, tails, exponents, rate, simulate, report)


def test_all_is_version_plus_module_exports():
    names = mdtail.__all__
    assert len(names) == len(set(names))
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in MODULES))
    for name in names:
        assert hasattr(mdtail, name), name
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mdtail, name) is getattr(module, name), name


def test_removed_names_are_gone():
    assert not hasattr(mdtail, "survival")
    assert not hasattr(mdtail, "sample")
    assert not hasattr(tails, "survival")
    assert not hasattr(tails, "sample")
    assert not hasattr(tails.TailModel, "survival")
    assert not hasattr(tails, "model_preset_names") and not hasattr(mdtail, "model_preset_names")
    assert not hasattr(rate.Regime, "BOUNDED_NONZERO_LIMSUP")
    prediction_fields = exponents.ScaledTailPredictions.__dataclass_fields__
    assert set(prediction_fields) == {"sqrt_tg_limsup", "sqrt_tg_liminf"}
    split_fields = simulate.SplitEstimate.__dataclass_fields__
    assert "x_upper_target" not in split_fields and "x_lower_target" not in split_fields
    model_fields = tails.TailModel.__dataclass_fields__
    assert "sampler_note" not in model_fields
    # a law is its uniform map, and one block loop remains
    assert "sampler" not in model_fields and {"from_uniform", "uniform_breaks"} <= set(model_fields)
    assert not hasattr(simulate, "_row_sums") and not hasattr(simulate, "_alias_sample")
    assert not {"right_tail", "left_tail"} & set(model_fields)
    model = tails.pareto(3.0)
    assert math.isclose(float(model.right_tail(10.0)), 1e-3, rel_tol=1e-12)
    assert float(model.left_tail(10.0)) == 0.0
    schedule_fields = tails.OscillationSchedule.__dataclass_fields__
    assert not {"u0", "growth", "u_end"} & set(schedule_fields)
    assert not hasattr(tails, "_piecewise_quad") and not hasattr(tails, "_chunk_edges")
    # every tail integral takes one Gauss-Legendre path; scipy's quad is not imported
    assert not hasattr(tails, "quad")
    assert not hasattr(exponents, "default_r_grid") and not hasattr(mdtail, "default_r_grid")
    # result fields that only copied the call's arguments
    trajectory_fields = simulate.Trajectory.__dataclass_fields__
    assert not {"model_label", "scale_label", "x", "method"} & set(trajectory_fields)
    assert "x" not in split_fields
    assert "n" not in simulate.TruncationScheme.__dataclass_fields__
    assert not hasattr(tails.TailModel, "sampler")
    assert not hasattr(scale, "scale_preset_names") and not hasattr(mdtail, "scale_preset_names")

    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert params(exponents.exponents_sup_form) == {"model", "g"}
    assert params(exponents.empirical_exponents) == {"sample", "g"}
    assert params(exponents.GridSpec.decades) == {"t_min", "t_max"}
    assert params(tails._LogSurvivalInverse) == {"w_fn", "u_lo"}
    assert params(tails._decay_side) == {"h", "u0", "u_breaks", "what"}
    assert "atom" not in params(tails._assemble_two_sided)
