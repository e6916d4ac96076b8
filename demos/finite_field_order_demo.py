"""The positivity order of M_2(F_3) misbehaves: q - p can be a sum of
squares while p is not below q in the projection order.

Also shows why the unitary / completely-non-unitary split of a contraction
is refused over this ring: the positive cone is neither antisymmetric nor
consists purely of squares.  Over F_p the cone is exactly the symmetric
matrices, so its size and its squares have closed forms.
"""

from stardecomp import (
    AxiomViolationError,
    axiom_probe,
    construct_gf_ring,
    from_rows,
    identity,
    is_positive,
    nfl,
    positivity_cone,
    proj_leq,
)
from stardecomp.projections import from_element

dom = construct_gf_ring(3, 2)
p = from_rows(dom, [[1, 0], [0, 0]])
q = from_rows(dom, [[0, 0], [0, 1]])
diff = q - p

print("ring:", dom)
print("q - p =", diff.mat.tolist(), "   (= diag(2,1) over F_3)")
print("is_positive(q - p):", is_positive(diff))
print("witness q - p = p + p + q:", (p + p + q).equals(diff))
print("but proj_leq(p, q):", proj_leq(from_element(p), from_element(q)))

cone = positivity_cone(dom)
print(f"\ncone: {cone.cone_size} positive elements (= 3^3, the symmetric matrices), "
      f"{cone.square_count} of the form x*x (= (3^3 + 3) / 2)")
print("axiom probe:", axiom_probe(dom))

try:
    nfl(identity(dom, 2))
except AxiomViolationError as exc:
    print("\nnfl over this ring is refused, as it must be:")
    print(" ", exc)
