"""flowbp: min-cost network flow by exact min-sum belief propagation.

The library solves capacitated min-cost flow with a round-synchronous
message-passing engine whose messages are exact piecewise-linear convex
functions, detects uniqueness of the optimum from the final beliefs, and
wraps the solver in a randomized perturb-and-decimate scheme that yields a
(1+eps)-approximation on arbitrary integral instances.

Typical use::

    from flowbp import FlowNetwork, run, detect_uniqueness, approx_scheme

    net = FlowNetwork.from_data(
        {1: 1, 2: 0, 3: -1},
        [(1, 1, 2, 2, 1), (2, 2, 3, 2, 1), (3, 1, 3, 2, 3)],
    )
    print(run(net).assignment.flows)
    print(detect_uniqueness(net).unique)
    print(approx_scheme(net, "1/2", seed=7).assignment.objective)

Importing the package loads the solver (``errors``, ``pwl``,
``flowmodel`` and ``bp_engine``).  The exports of ``fpras``, ``gen`` and
``oracles``, and those modules themselves, are loaded on first use, so a
``solve`` or ``check-unique`` process never compiles them.
"""

from .bp_engine import (
    MessageState,
    RunResult,
    UniquenessResult,
    belief,
    detect_uniqueness,
    estimate,
    init_messages,
    run,
    update_round,
)
from .errors import FlowBpError
from .flowmodel import (
    Arc,
    FlowAssignment,
    FlowNetwork,
    UNBOUNDED,
    check_solvable,
    emit_dimacs,
    iteration_bound,
    linear_cost,
    min_cycle_cost,
    network_from_json_dict,
    network_to_json_dict,
    parse_dimacs,
    preprocess_degree,
)
from .pwl import PwlConvex, inf_convolve2, scaled_interpolation

#: Exports resolved on first use, by module.
_LAZY = {
    "fpras": ("approx_scheme", "aprxmt", "fix_arc", "perturb_costs"),
    "gen": ("hard_instance", "random_network"),
    "oracles": (
        "ComputationTree",
        "build_tree",
        "enumerate_integral_flows",
        "exact_solve",
        "is_unique_optimum",
        "tree_solve",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    from importlib import import_module

    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    module = _LAZY_OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_OWNER})


__all__ = [
    "Arc",
    "ComputationTree",
    "FlowAssignment",
    "FlowBpError",
    "FlowNetwork",
    "MessageState",
    "PwlConvex",
    "RunResult",
    "UNBOUNDED",
    "UniquenessResult",
    "approx_scheme",
    "aprxmt",
    "belief",
    "build_tree",
    "check_solvable",
    "detect_uniqueness",
    "emit_dimacs",
    "enumerate_integral_flows",
    "estimate",
    "exact_solve",
    "fix_arc",
    "hard_instance",
    "inf_convolve2",
    "init_messages",
    "is_unique_optimum",
    "iteration_bound",
    "linear_cost",
    "min_cycle_cost",
    "network_from_json_dict",
    "network_to_json_dict",
    "parse_dimacs",
    "perturb_costs",
    "preprocess_degree",
    "random_network",
    "run",
    "scaled_interpolation",
    "tree_solve",
    "update_round",
]

__version__ = "0.1.0"
