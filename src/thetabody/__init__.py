"""thetabody: theta-body SDP relaxations of convex hulls of finite varieties.

The package is organized as a pipeline:

- ``exactalg``   exact rational groundwork: monomials, point sets, vanishing-
                 ideal quotient rings via evaluation/interpolation.
- ``momentsdp``  symbolic moment-matrix templates over a quotient ring or a
                 combinatorial basis, and their instantiation as SDP data.
- ``options``    the solver's settings (SolverOptions), with no imports
                 beyond ``errors``.
- ``sdpsolve``   a dense primal-dual interior-point SDP solver.
- ``combopt``    stable-set and cut relaxations of graphs, built on
                 combinatorial bases instead of a quotient ring.
- ``geomexact``  exact convex-hull geometry: facet enumeration, two-level
                 certificates, 0/1 classification, down-closed analysis.
- ``quadrics``   degree-two slices of vanishing ideals: convex-quadric
                 certificates and first-relaxation membership.
- ``cli``        the ``thetabody`` command-line entry point.

The names in ``__all__`` load on first access (PEP 562): ``import thetabody``
imports no submodule, and ``thetabody.solve`` imports ``sdpsolve`` (and with
it numpy) only when first asked for.
"""

import importlib

__version__ = "0.1.0"

# Home module of each public name; __all__ lists the names in this order.
_HOMES = {
    "errors": ("ThetaBodyError", "InputError", "ResourceLimitError", "SolverError"),
    # exact rational groundwork
    "exactalg": (
        "Monomial",
        "PointSet",
        "QuotientRing",
        "buchberger_moller",
        "parse_rational",
        "format_rational",
        "parse_monomial",
        "parse_polynomial",
        "rational_rref",
    ),
    # moment templates and SDP data
    "momentsdp": (
        "MomentTemplate",
        "build_moment_template",
        "assemble",
        "SdpProblem",
        "build_theta_sdp",
    ),
    # solver settings
    "options": ("SolverOptions",),
    # solver
    "sdpsolve": ("SdpSolution", "solve"),
    # graph models
    "combopt": (
        "Graph",
        "CombBasis",
        "enumerate_stable_sets",
        "enumerate_odd_cycle_free",
        "moment_template",
        "ThetaResult",
        "stable_set_theta",
        "cut_theta",
        "parse_weights",
    ),
    # exact geometry
    "geomexact": (
        "FacetInequality",
        "ExactnessReport",
        "facets",
        "is_exact",
        "vertex_indices",
        "FacetVertexReport",
        "facet_vertex_report",
        "ZeroOneClass",
        "classify_01",
        "DownClosedReport",
        "down_closed_analysis",
        "affine_dimension",
    ),
    # quadric slices
    "quadrics": (
        "Quadric",
        "QuadricSpace",
        "quadric_space_from_points",
        "quadric_space_from_generators",
        "ConvexQuadricReport",
        "has_convex_quadric",
        "MembershipReport",
        "th1_membership",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME_OF]


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Read from the home module on every access, so a name rebound there
    # (by a test double or a tracer) is what the package hands out too.
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
