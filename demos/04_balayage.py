"""Sweeping a charge onto a conductor (balayage).

The swept measure is the energy-metric projection of the source onto the
nonnegative measures supported by the target nodes.  Its fingerprint: the
swept potential equals the source potential wherever the swept measure is
charged and dominates it elsewhere on the target, the energy never grows,
and (for targets that do not surround the source) some mass escapes.
"""

import numpy as np

from vequil import KernelSpec, ScalarSignedMeasure, assemble_gram, cross_kernel
from vequil.analysis import balayage
from vequil.geometry import fibonacci_sphere, grid_nodes

spec = KernelSpec("newtonian")

print("1) point charge above a square plate")
plate = grid_nodes([-1, -1, 0], [1, 1, 0], [12, 12, 1])
K_plate = assemble_gram(spec, plate)
for height in (0.25, 0.5, 1.0, 2.0):
    src = ScalarSignedMeasure(support=[[0.0, 0.0, height]], weights=[1.0])
    rep = balayage(src, K_plate)
    print(f"   height {height:4.2f}: swept mass {rep.mass_ratio:.4f}, "
          f"energy {rep.swept_energy:.4f} <= {rep.source_energy:.4f}, "
          f"KKT residual {rep.potential_residual:.1e}")
print("   closer sources sweep more of their mass onto the plate.")

print("\n2) unit charge at distance d = 2 from a unit sphere")
sphere = fibonacci_sphere(400, radius=1.0)
src = ScalarSignedMeasure(support=[[2.0, 0.0, 0.0]], weights=[1.0])
K_sphere = assemble_gram(spec, sphere)
rep = balayage(src, K_sphere)
print(f"   swept mass fraction = {rep.mass_ratio:.4f} (classical value R/d = 0.5)")
charged = rep.swept > 0
source_potential = cross_kernel(K_sphere.spec, sphere, src.support) @ src.weights
dev = K_sphere.matvec(rep.swept) - source_potential
print(f"   potential match on charged part: max |dev| = {np.abs(dev[charged]).max():.2e}")
near = rep.swept[sphere[:, 0] > 0.5].sum() / rep.swept.sum()
print(f"   whole sphere charged ({charged.sum()} of 400), "
      f"{near:.0%} of the mass on the cap facing the source")
