"""Sweeping a charge onto a conductor (balayage).

The swept measure is the energy-metric projection of the source onto the
nonnegative measures supported by the target nodes.  Its fingerprint: the
swept potential equals the source potential wherever the swept measure is
charged and dominates it elsewhere on the target, the energy never grows,
and (for targets that do not surround the source) some mass escapes.
"""

import numpy as np

from vequil import KernelSpec, ScalarSignedMeasure
from vequil.analysis import balayage, balayage_gram
from vequil.geometry import fibonacci_sphere, grid_nodes

spec = KernelSpec("newtonian")

print("1) point charge above a square plate")
plate = grid_nodes([-1, -1, 0], [1, 1, 0], [12, 12, 1])
for height in (0.25, 0.5, 1.0, 2.0):
    src = ScalarSignedMeasure(support=[[0.0, 0.0, height]], weights=[1.0])
    rep = balayage(src, plate, balayage_gram(spec, src, plate))
    print(f"   height {height:4.2f}: swept mass {rep.mass_ratio:.4f}, "
          f"energy {rep.swept_energy:.4f} <= {rep.source_energy:.4f}, "
          f"KKT residual {rep.potential_residual:.1e}")
print("   closer sources sweep more of their mass onto the plate.")

print("\n2) unit charge at distance d = 2 from a unit sphere")
sphere = fibonacci_sphere(400, radius=1.0)
src = ScalarSignedMeasure(support=[[2.0, 0.0, 0.0]], weights=[1.0])
joint = balayage_gram(spec, src, sphere)
rep = balayage(src, sphere, joint)
print(f"   swept mass fraction = {rep.mass_ratio:.4f} (classical value R/d = 0.5)")
charged = rep.swept > 0
K = joint.entries
emb = np.zeros(K.shape[0]); emb[:400] = rep.swept
omega = np.zeros(K.shape[0]); omega[len(sphere)] = 1.0
dev = (K @ (emb - omega))[:400]
print(f"   potential match on charged part: max |dev| = {np.abs(dev[charged]).max():.2e}")
near = rep.swept[sphere[:, 0] > 0.5].sum() / rep.swept.sum()
print(f"   whole sphere charged ({charged.sum()} of 400), "
      f"{near:.0%} of the mass on the cap facing the source")
