# Morphisms, their compatibility residuals, and the dictionary with flat
# elements of the convolution structure on the mapping space.

from fractions import Fraction

from linfty import (
    GradedSpace,
    MultiMap,
    build_convolution,
    check_morphism,
    cohomology,
    identity_morphism,
    is_quasi_iso,
    make_linfty,
    morphism_to_mc,
)
from linfty.morphism import MorphismComponents

F = Fraction

space = GradedSpace([("a", 0), ("b", 1)])
q1 = MultiMap.from_entries(space, space, 1, 1, {("a",): {"b": F(1)}})
two_term = make_linfty(space, {1: q1}, cap=3)

idm = identity_morphism(two_term)
print("identity:", check_morphism(idm).summary())
print("identity:", is_quasi_iso(idm).summary())
print("cohomology of the acyclic complex:", cohomology(two_term).summary())

# A map that is not a chain map fails at weight one and the report names
# the offending word.
f1 = MultiMap.from_entries(space, space, 1, 0, {("a",): {"a": F(1)}})
not_chain = MorphismComponents(two_term, two_term, {1: f1})
print(check_morphism(not_chain).summary())

# The same failure seen through the mapping space: the component
# collection, read as a degree-1 element, has nonzero curvature, and the
# weight-graded curvature equals the morphism residual on the nose.
conv = build_convolution(two_term, two_term, 3)
alpha = morphism_to_mc(not_chain)
curvature = conv.mc_residual(alpha)
report = check_morphism(alpha)
for word in two_term.words():
    got = curvature.value(word)
    if not got.is_zero():
        print(
            "word %s: curvature %r == residual %r"
            % ("^".join(word.factors), got, report.residuals[word])
        )

print("identity is flat in the mapping space:",
      conv.mc_residual(morphism_to_mc(idm)).is_zero())

# Filtration levels count the lowest weight where a component survives.
print("level of the identity:", morphism_to_mc(idm).filtration_level)
print("level of the zero element:", conv.zero(1).filtration_level)
