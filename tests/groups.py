"""Groups, modules and oracles shared by several test modules.

Test modules import these from here, never from one another, so that an
import error in one test module does not stop the others from being
collected.
"""

import numpy as np

from pgv.catalog import builtin_catalog
from pgv.cohomology import cohomology
from pgv.gmodule import fixed_points, module_from_conjugation, restrict_action, trivial_module
from pgv.group_core import centralizer, normal_subgroups
from pgv.presentations import PcPresentation


def pres_d8():
    # g1 reflection, g2 rotation of order 4, g3 = g2^2.
    return PcPresentation(
        2, 3, "D8", {1: [], 2: [3], 3: []}, {(2, 1): [3], (3, 1): [], (3, 2): []}
    )


def pres_d16():
    return PcPresentation(
        2,
        4,
        "D16",
        {1: [], 2: [3], 3: [4], 4: []},
        {(2, 1): [3, 4], (3, 1): [4]},
    )


def pres_heis27():
    return PcPresentation(3, 3, "He27", {1: [], 2: [], 3: []}, {(2, 1): [3]})


def conjugation_module(g):
    """W = the largest elementary abelian normal subgroup, acted on by G/C_G(W)."""
    orders = g.element_orders()
    elementary = [n for n in normal_subgroups(g) if np.all(orders[n.members] <= g.p)]
    w = max(elementary, key=lambda n: n.order)
    return module_from_conjugation(g, centralizer(g, w), w).module


def small_modules():
    """trivial:1, trivial:2 and the conjugation module of every catalog group
    of order <= 16."""
    for e in builtin_catalog():
        if e.order <= 16:
            g = e.group()
            yield from (trivial_module(g, 1), trivial_module(g, 2), conjugation_module(g))


# -- oracles for a right submodule of prod^n F_p(G), read off its carrier -----


def fixed_points_in_carrier(fb, carrier):
    """The vectors of the carrier fixed by G: the free module's own fixed
    points intersected with the carrier, with no restricted module."""
    return fixed_points(fb.as_gmodule("right")).intersect(carrier)


def h1_of_restriction(fb, carrier):
    """dim H^1 of a restriction of the free module to the carrier, made here
    and not taken from any object that already holds one."""
    sub = restrict_action(fb.as_gmodule("right"), carrier)
    return cohomology(sub.group, sub, 1).h_dim
