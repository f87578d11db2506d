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
    # the plateau -lam/2^rho is rate's cap, the deviation threshold is simulate._point's,
    # and every scale preset is a closed form with a stated rho
    removed = {
        exponents: ("empirical_exponents", "EmpiricalExponents", "_EMPIRICAL_POINTS",
                    "scaled_tail_predictions", "ScaledTailPredictions", "_window_start"),
        scale: ("check_regular_variation", "RegularVariationReport", "half_index_limit",
                "HalfIndexLimit", "scaled_threshold", "Sequence"),
        rate: ("rate_curve_csv",),
    }
    for module, names in removed.items():
        for name in names:
            assert not hasattr(module, name) and not hasattr(mdtail, name), name
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
    # a trajectory is its points; the rate band belongs to the report, so
    # simulate binds no exponent or rate name
    assert not hasattr(simulate, "Trajectory") and not hasattr(mdtail, "Trajectory")
    # a run calls its estimator directly; report holds the one method table
    for name in ("convergence_trajectory", "TrajectoryPoint"):
        assert not hasattr(simulate, name) and not hasattr(mdtail, name)
    assert not hasattr(simulate, "_METHODS")
    band_names = {"exponents_from_tail", "RateSpec", "rate_limsup", "rate_liminf"}
    assert not band_names & set(vars(simulate))
    assert "x" not in split_fields
    assert "n" not in simulate.TruncationScheme.__dataclass_fields__
    assert not hasattr(tails.TailModel, "sampler")
    assert not hasattr(scale, "scale_preset_names") and not hasattr(mdtail, "scale_preset_names")

    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert params(exponents.exponents_sup_form) == {"model", "g"}
    assert params(exponents.GridSpec.decades) == {"t_min", "t_max"}
    assert params(tails._LogSurvivalInverse) == {"w_fn", "u_lo"}
    assert params(tails._decay_side) == {"h", "u0", "u_breaks", "what"}
    assert "atom" not in params(tails._assemble_two_sided)
    # each exact check has one entry, its sweep, and the sign array draws one stream
    for name in ("levy_maximal_check", "max_lower_bound_check", "MaxBoundResult"):
        assert not hasattr(simulate, name) and not hasattr(mdtail, name), name
    assert "workers" not in params(simulate.bounded_array_mc)
    # every estimate draws from the one stream (seed, 0), cut into spans, not chunks
    assert not hasattr(simulate, "_chunk_sizes") and not hasattr(simulate, "_chunked_sums")
    assert params(tails._rng_stream) == {"seed"}
    assert params(simulate.levy_full_sweep) == set()
    # simulate alone holds the A3 sweep in its scaled integers; report calls it, and a
    # result holds its six exact fields, with the verdicts read from them
    for name in ("_threshold_numerators", "_threshold_grid", "_levy_grid_cases",
                 "_THRESHOLD_COUNT", "_LEVY_N_MAX", "_levy_tables", "_levy_numerators",
                 "_scaled_law", "_sum_medians"):
        assert not hasattr(report, name), name
    assert report.inequality_law_grid is simulate.inequality_law_grid
    assert report.levy_full_sweep is simulate.levy_full_sweep
    levy_fields = simulate.LevyCheckResult.__dataclass_fields__
    assert list(levy_fields) == ["n", "t", "increment_side", "increment_bound",
                                 "prefix_side", "prefix_bound"]
    assert not hasattr(simulate.LevyCheckResult, "_values")
