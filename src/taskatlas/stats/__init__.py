"""Statistical procedures behind the reported results: correlations, LOESS with
bootstrap bands, variance decomposition, two-way fixed effects with clustered
errors, regression forests, exact TreeSHAP, permutation importance,
1-D accumulated local effects, and dominance-analysis Shapley R^2.

Public names resolve on first access (PEP 562), so ``from taskatlas.stats
import fit_forest`` loads ``forest`` and what it imports, not every module here.
"""

import importlib

#: public name -> the submodule that defines it
_MODULE_OF = {
    "StatsError": "series",
    **dict.fromkeys(
        ("CorrResult", "LeaveOneOutResult", "leave_one_out", "partial_correlation", "pearson", "spearman"),
        "correlation",
    ),
    **dict.fromkeys(("Band", "LoessFit", "bootstrap_band", "loess"), "smooth"),
    **dict.fromkeys(("FeResult", "fe_regression"), "regression"),
    **dict.fromkeys(("DominanceResult", "VarianceShares", "shapley_r2", "variance_decomposition"), "decompose"),
    **dict.fromkeys(("Forest", "ForestParams", "Tree", "fit_forest", "permutation_importance"), "forest"),
    **dict.fromkeys(("AttributionResult", "mean_abs_shap", "tree_shap"), "treeshap"),
    **dict.fromkeys(("AleResult", "ale_1d"), "ale"),
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
