"""Equilibrium measure and capacity of a sphere.

The unit-charge energy minimizer on a conductor is its equilibrium measure;
its energy is the Robin constant W and 1/W the capacity.  For a sphere of
radius R under the Newtonian kernel the capacity is exactly R, which makes
a clean analytic oracle for the whole solver stack.  The potential of the
minimizer must be flat at level W across the conductor (Frostman property).
"""

import numpy as np

from vequil import KernelSpec, SolverConfig, assemble_gram
from vequil.analysis import equilibrium
from vequil.geometry import fibonacci_sphere

radius = 2.0
print(f"Newtonian capacity of a sphere, analytic value = radius = {radius}")
print("\n nodes   epsilon   capacity   rel.err   Frostman violation")
for count in (100, 200, 500, 1000):
    nodes = fibonacci_sphere(count, radius=radius)
    K = assemble_gram(KernelSpec("newtonian"), nodes)  # eps = half min spacing
    eq = equilibrium(nodes, K, config=SolverConfig(grad_tol=1e-10))
    rel = abs(eq.capacity - radius) / radius
    print(f"{count:6d}   {K.spec.epsilon:.4f}   {eq.capacity:.5f}   {rel:6.2%}   "
          f"{eq.frostman_violation:.2e}")

nodes = fibonacci_sphere(500, radius=radius)
K = assemble_gram(KernelSpec("newtonian"), nodes)
eq = equilibrium(nodes, K, config=SolverConfig(grad_tol=1e-10))
pot = K.matvec(eq.unit_minimizer)
print(f"\n500-node minimizer: weights in [{eq.unit_minimizer.min():.2e}, "
      f"{eq.unit_minimizer.max():.2e}], sum = {eq.unit_minimizer.sum():.12f}")
print(f"potential across conductor: [{pot.min():.8f}, {pot.max():.8f}], "
      f"W = {eq.robin_constant:.8f}")

theta = eq.unit_minimizer / eq.robin_constant
print("\nscaled measure theta = minimizer / W reproduces the classical identities:")
print(f"  total mass   {theta.sum():.8f}")
print(f"  energy       {theta @ K.matvec(theta):.8f}")
print(f"  capacity     {eq.capacity:.8f}")
