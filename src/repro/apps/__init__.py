"""The paper's evaluation applications, runnable on the simulated clusters.

* :mod:`repro.apps.hsg` — Heisenberg Spin Glass over-relaxation, on the
  paper's 1-D slabs or on the 2-D pencils of its §V.D outlook;
* :mod:`repro.apps.bfs` — graph500-style distributed level-synchronous BFS.

Both compute their physics/graph results for real (NumPy) while every
halo plane and frontier bucket travels through the simulated network, and
both validate bit-for-bit against serial references.
"""
