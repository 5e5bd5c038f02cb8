"""tmeshkit: multivariate T-meshes with analysis-suitability classifiers.

Arbitrary-dimension, arbitrary-degree T-meshes over an integer index
domain: explicit entity complexes with replayable bisection refinement,
anchor and knot-vector machinery, spline evaluation, the four
analysis-suitability / dual-compatibility classifiers, and a seeded
verification harness that cross-checks the classifier theorems.

The public names below resolve on first use (a module `__getattr__`,
PEP 562): `import tmeshkit` loads no submodule, and `tmeshkit.is_aas`
imports `tmeshkit.suitability`, and with it numpy, only when it is read.
So a process that only builds and refines meshes never loads numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "mesh": ("CellOutsideActiveRegion", "DimensionTooSmall", "IndexDomain",
             "MeshError", "NonIntegerMidpoint", "NotACell", "TMesh",
             "active_region", "build_framed_mesh", "create_tensor_mesh",
             "find_cell_containing", "frame_region", "frame_region_k",
             "is_admissible", "check_three_direction_assumption",
             "orth_entities", "skeleton", "subdiv"),
    "regions": ("Box", "BoxRegion", "DimensionMismatch"),
    "topology": ("ClassificationAmbiguous", "NotFound", "PreconditionViolated",
                 "TJunction", "find_separating_tjunction", "find_tjunctions",
                 "min_connecting_box", "tjunctions_by_odir"),
    "anchors": ("InsufficientKnots", "anchor_set", "global_knot_vector",
                "index_support", "local_knot_vector"),
    "splines": ("DegenerateKnots", "bspline_eval", "supports_overlap",
                "tspline", "tspline_eval"),
    "suitability": ("AbstractExtension", "GeometricExtension",
                    "NonAdjacentCellBounds", "atj_slice", "atj_union", "gtj",
                    "gtj_union", "is_aas", "is_sgas", "is_wgas"),
    "dualcompat": ("SameAnchor", "is_sdc", "is_wdc", "knots_overlap",
                   "strongly_partially_overlap", "weakly_partially_overlap"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # an unknown name must raise AttributeError, so that
    # `from tmeshkit import verify` falls back to importing the submodule
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
