# Gauge flows: d/dt pi_t = Q_1^{pi_t}(xi) solved exactly, one power of t at a time.

from fractions import Fraction

from linfty import (
    Element,
    GradedSpace,
    MultiMap,
    NonConvergenceError,
    gauge_flow,
    lower_central_series,
    make_linfty,
    mc_residual,
)

F = Fraction

# A depth-4 nilpotent structure: p ^ q -> r, p ^ r -> s.
space = GradedSpace([("p", 0), ("q", 1), ("r", 1), ("s", 1)])
q2 = MultiMap.from_entries(
    space, space, 2, 0, {("p", "q"): {"r": F(1)}, ("p", "r"): {"s": F(1)}}
)
structure = make_linfty(space, {2: q2}, cap=4)
chain = lower_central_series(structure)
print("lower central series:", chain.verdict())
for level in range(2, (chain.depth or 2) + 1):
    print("  level %d spanned by %s" % (level, chain.spanning_elements(level)))

# The flow of q along p picks up one filtration level per power of t.
path = gauge_flow(structure, Element(space, 1, {"q": F(1)}), Element(space, 0, {"p": F(1)}))
print("flow of q along p:", repr(path))
for t in (F(0), F(1, 2), F(1)):
    print("  curvature at t = %s:" % t, repr(mc_residual(structure, path.evaluate(t))))

# On a structure whose lower central series never dies the powers of t
# never die, and the flow refuses with a diagnostic.
bad_space = GradedSpace([("w", 0), ("v", 1)])
bad = make_linfty(
    bad_space,
    {2: MultiMap.from_entries(bad_space, bad_space, 2, 0, {("w", "v"): {"v": F(1)}})},
    cap=3,
)
print("non-nilpotent fixture:", lower_central_series(bad).verdict())
try:
    gauge_flow(bad, Element(bad_space, 1, {"v": F(1)}), Element(bad_space, 0, {"w": F(1)}))
except NonConvergenceError as exc:
    print("flow rejected:", exc)
