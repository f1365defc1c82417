"""Catalog-schema entries of two splint families, built from simple-root images.

B_n > D_n + nA1 takes the stem images e_1, ..., e_n and A_n > A_(n-1) + nA1
the stem images e_i - e_(n+1) (B2:A1A1, A2:A1A1A1 and A3:A2A1A1A1 of the
catalog are small cases); both take the identity correspondence.  Each
source positive root maps to its simple coefficients times the simple-root
images (`RootSystem.root_coefficients`).  No entry joins the catalog.
"""

from splintbranch.rootsystem import build_root_system


def _part(source, images):
    # positive roots by height, then by coefficients, highest first
    coeffs = [k for k in build_root_system(source).root_coefficients.values() if min(k) >= 0]
    coeffs.sort(key=lambda k: (sum(k), [-c for c in k]))
    return {"source": source,
            "map": [[list(k), [sum(c * x for c, x in zip(k, col)) for col in zip(*images)]]
                    for k in coeffs]}


def _unit(i, dim):
    return [int(j == i) for j in range(dim)]


def _entry(ambient, sub, sub_images, stem_images):
    n = len(stem_images)
    return {"name": f"{ambient}:{sub}" + "A1" * n, "ambient": ambient,
            "subalgebra": _part(sub, sub_images),
            "stem": _part("x".join(["A1"] * n), stem_images),
            "correspondence": list(range(n))}


def b_family(n):
    """B_n > D_n + nA1: D_n at e_i - e_(i+1) and e_(n-1) + e_n."""
    e = [_unit(i, n) for i in range(n)]
    chain = [[a - b for a, b in zip(e[i], e[i + 1])] for i in range(n - 1)]
    return _entry(f"B{n}", f"D{n}", chain + [[a + b for a, b in zip(e[-2], e[-1])]], e)


def a_family(n):
    """A_n > A_(n-1) + nA1: A_(n-1) at e_i - e_(i+1), i < n."""
    e = [_unit(i, n + 1) for i in range(n + 1)]
    chain = [[a - b for a, b in zip(e[i], e[i + 1])] for i in range(n - 1)]
    return _entry(f"A{n}", f"A{n - 1}", chain,
                  [[a - b for a, b in zip(e[i], e[n])] for i in range(n)])
