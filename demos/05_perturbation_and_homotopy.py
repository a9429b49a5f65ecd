# Perturbing a morphism at one weight, and certifying the homotopy.
#
# Given a verified morphism F and a weight-n map H of degree -n, the gauge
# flow in the mapping space produces a new morphism that agrees with F
# below weight n and differs at weight n by the differential of H.  The
# flow itself packages into a homotopy h = h0 + h1 dt between the two.

from fractions import Fraction

from linfty import (
    GradedSpace,
    MultiMap,
    check_homotopy,
    check_morphism,
    differential_correction,
    identity_morphism,
    is_quasi_iso,
    make_linfty,
    unsplit_residual,
    wedge_basis,
)
from linfty.perturbation import PerturbationRequest, flow_morphism

F = Fraction

space = GradedSpace([("a", 0), ("b", 1)])
q1 = MultiMap.from_entries(space, space, 1, 1, {("a",): {"b": F(1)}})
two_term = make_linfty(space, {1: q1}, cap=3)
idm = identity_morphism(two_term)

# Prescribe H at weight 2: H(b, b) = a, everything else zero.
correction = MultiMap.from_entries(space, space, 2, -2, {("b", "b"): {"a": F(1)}})
perturbed, h = flow_morphism(PerturbationRequest(idm, 2, correction))

print("weight-1 component unchanged:", perturbed.component(1) == idm.component(1))
f2 = perturbed.component(2)
print("new weight-2 values: F(b,b) = %r, F(a,b) = %r"
      % (f2.evaluate(("b", "b")), f2.evaluate(("a", "b"))))
print("perturbed morphism:", check_morphism(perturbed).summary())
print("still a quasi-isomorphism:", is_quasi_iso(perturbed).passed)

# The change at weight 2 is exactly the differential of H, computed by an
# independent slot-by-slot evaluator.
delta = differential_correction(two_term, two_term, correction)
for word in wedge_basis(space, 2):
    change = f2.value(word) - idm.component(2).value(word)
    assert change == delta.value(word)
print("weight-2 change equals the differential of H on every word")

# The flow, packaged as the homotopy h, certifies that the two morphisms
# are homotopic: flat at every time, correct evolution, correct endpoints.
print(check_homotopy(idm, perturbed, h).summary())

# The flat/evolution split is exactly the dt-degree split of the single
# curvature computation in the path algebra over the mapping space.
combined = unsplit_residual(h)
print("unsplit curvature vanishes:", combined.is_zero())
