#!/usr/bin/env python3
"""Walk through exact enumeration of determinant-one integer matrix balls.

The ball of budget T collects the integer matrices [[a, b], [c, d]] with
ad - bc = 1 whose entry-square sum is at most T.  Enumeration runs through the
two-squares identity: an element of norm n is a pair of lattice points, one on
the circle p^2 + q^2 = n + 2 and one on r^2 + s^2 = n - 2, with matching
parities.  Pairing the circle points of whole windows of norms with numpy
gives every element exactly once, in a deterministic order.
"""

import tempfile
import time

from orbitlab import SubgroupFilter, count, dump_elements, enumerate_ball, load_elements

print("== smallest balls ==")
for T in (1, 2, 3, 7):
    elems = list(enumerate_ball(T))
    print(f"budget {T}: {len(elems)} elements")
    if T <= 3:
        for g in elems:
            print("   ", g.entries())

print()
print("== the two-squares pairing at budget 7 ==")
print("p = a+d, q = b-c, r = a-d, s = b+c send an element of norm n to a point")
print("(p, q) with p^2+q^2 = n+2 and a point (r, s) with r^2+s^2 = n-2, where")
print("p, r and q, s have equal parities; every such pair is one element:")
ball = [g.entries() for g in enumerate_ball(7)]
for n in range(2, 8):
    elems = [(a, b, c, d) for a, b, c, d in ball if a * a + b * b + c * c + d * d == n]
    pq = sorted({(a + d, b - c) for a, b, c, d in elems})
    rs = sorted({(a - d, b + c) for a, b, c, d in elems})
    print(f"  norm {n}: {len(elems):>2} elements")
    if elems:
        print(f"    (p,q): {pq}")
        print(f"    (r,s): {rs}")

print()
print("== linear growth of the count ==")
print("the ball volume is 2*pi^2*(T-2), the quotient volume pi^2/3, so the")
print("count should approach 6*(T-2):")
for T in (10**3, 10**4, 10**5):
    t0 = time.time()
    n = count(T)
    print(f"  count({T:>6}) = {n:>7}   count/(6(T-2)) = {n/(6*(T-2)):.5f}   [{time.time()-t0:.2f}s]")

print()
print("== congruence filters ==")
for text in ("full", "gamma0:2", "gamma0:5", "gamma:2"):
    flt = SubgroupFilter.parse(text)
    print(f"  {text:>9}: count(500) = {count(500, flt)}")

print()
print("== binary dumps ==")
with tempfile.TemporaryDirectory() as tmp:
    path = f"{tmp}/ball.i64"
    n = dump_elements(path, 200, SubgroupFilter.gamma0(3))
    arr, sidecar = load_elements(path)
    print(f"  wrote and re-read {n} elements; sidecar: {sidecar}")
