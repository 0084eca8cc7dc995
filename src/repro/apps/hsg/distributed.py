"""Distributed multi-GPU Heisenberg Spin Glass over-relaxation (§V.D).

Faithful to the paper's structure: "the 3D domain is decomposed among the
computing nodes along a single dimension, and the communication-computation
overlap method is used: first compute the local lattice boundary, then
exchange it with the remote nodes, while computing the bulk".

The lattice is split over a (Py × Pz) process grid along Y and Z: each
rank owns an L × (L/Py) × (L/Pz) pencil with one-plane halos on its four
Y/Z faces.  The paper's slab decomposition is the grid (1, NP).  A 2-D
grid is the paper's outlook: "This advantage could increase for a
multi-dimensional domain-decomposition, where the size of the exchanged
messages shrinks in the strong scaling, thanks to more regularly shaped
3D sub-domains".  The six-neighbour stencil needs face halos only (no
corners), and an axis the grid does not split wraps locally.

Per checkerboard parity:

1. boundary kernel (the faces) on its own CUDA stream,
2. bulk kernel on another stream (overlaps with everything below),
3. the freshly-updated parity sites of each split face are sent to the
   grid neighbour in 128 KiB messages (matching the paper's "6 outgoing
   and 6 incoming 128 KB messages" for L=256 on two nodes),
4. wait for the neighbours' halos and for the local completion of the
   sends, then the bulk kernel, then next parity.

Transports: APEnet+ RDMA with ``p2p_mode`` in {"on", "rx", "off"} (GPU
peer-to-peer for both directions / RX only / staging both ways) or
GPU-aware MPI over the InfiniBand cluster.

``validate=True`` moves the *real* spin planes through the simulated
network so the distributed result can be compared bit-for-bit against the
serial :class:`~repro.apps.hsg.lattice.SpinLattice`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ...apenet.buflist import BufferKind
from ...apenet.config import DEFAULT_CONFIG
from ...cuda.memcpy import memcpy_device_work, memcpy_sync
from ...cuda.stream import CudaStream
from ...gpu.kernels import KernelLaunch
from ...gpu.specs import FERMI_2050, FERMI_2070
from ...mpi.comm import MpiWorld
from ...ib.cluster import build_ib_cluster
from ...net.cluster import build_apenet_cluster, torus_for_ranks
from ...sim import DeadlockError, Simulator
from ...units import Gbps, KiB, us
from .lattice import SpinLattice, overrelax_spins
from .perf import SPIN_BYTES, HsgKernelModel

__all__ = ["HsgConfig", "HsgResult", "run_hsg", "grid_for_ranks"]

HALO_CHUNK = 128 * KiB
# The OMPI reference column ran on Cluster II, whose HCAs sit in x8 slots.
MPI_PCIE_LANES = 8

# Split faces are walked in this order: (name, axis, side, opposite face).
_FACES = (
    ("ym", "y", -1, "yp"),
    ("yp", "y", 1, "ym"),
    ("zm", "z", -1, "zp"),
    ("zp", "z", 1, "zm"),
)


def grid_for_ranks(np_: int) -> tuple[int, int]:
    """The most square (Py, Pz) factorization of NP."""
    best = (1, np_)
    for py in range(1, int(math.sqrt(np_)) + 1):
        if np_ % py == 0:
            best = (py, np_ // py)
    return best


@dataclass
class HsgConfig:
    """One HSG run."""

    L: int = 128
    np_: int = 2
    # (Py, Pz) process grid over Y and Z.  None is the paper's 1-D slab
    # (1, NP); grid_for_ranks(NP) gives the most square 2-D grid.
    grid: Optional[tuple[int, int]] = None
    transport: str = "apenet"  # "apenet" | "mpi"
    p2p_mode: str = "on"  # "on" | "rx" | "off" (apenet only)
    sweeps: int = 3
    validate: bool = False
    seed: int = 7
    # The HSG runs used the 20 Gbps link bitstream (Fig 11 caption).
    link_bandwidth: float = Gbps(20)
    # Chaos/robustness knobs (apenet transport only): a FaultPlan/-Injector
    # and a RecoveryPolicy/-Manager.  None keeps the run bit-identical to
    # one without these fields.
    faults: Optional[object] = None
    recovery: Optional[object] = None

    def __post_init__(self):
        if self.grid is None:
            self.grid = (1, self.np_)
        py, pz = self.grid
        if py * pz != self.np_:
            raise ValueError(f"grid {self.grid} does not cover NP={self.np_}")
        if self.L % py or self.L % pz:
            raise ValueError("L must be divisible by both grid dimensions")
        if self.transport not in ("apenet", "mpi"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if self.p2p_mode not in ("on", "rx", "off"):
            raise ValueError(f"unknown p2p_mode {self.p2p_mode!r}")


@dataclass
class HsgResult:
    """Measured outcome, normalized like the paper's tables (ps/spin)."""

    config: HsgConfig
    ttot_ps: float
    tbnd_tnet_ps: float
    tnet_ps: float
    total_time_ns: float
    energy_before: Optional[float] = None
    energy_after: Optional[float] = None
    spins: Optional[np.ndarray] = None  # reassembled lattice (validate mode)
    # RecoveryStats of the run, when the cluster had a recovery manager.
    recovery_stats: Optional[object] = None

    def speedup_vs(self, single: "HsgResult") -> float:
        """Strong-scaling speedup relative to a single-node run."""
        return single.ttot_ps / self.ttot_ps


class _Face:
    """One split face of a rank: its neighbour, message size and buffers."""

    def __init__(self, name: str, axis: str, side: int, opposite: str, peer: int,
                 nbytes: int, extent: int):
        self.name, self.axis, self.opposite, self.peer = name, axis, opposite, peer
        self.nbytes = nbytes
        self.n_chunks = math.ceil(nbytes / HALO_CHUNK)
        # Slab indices along *axis* of the owned boundary plane and the halo.
        self.owned = 1 if side < 0 else extent
        self.halo = 0 if side < 0 else extent + 1
        self.send_gpu = self.recv_gpu = self.send_host = self.recv_host = None


class _Pencil:
    """Everything one rank needs during the run."""

    def __init__(self, cfg: HsgConfig, rank: int, node, ep):
        self.cfg = cfg
        self.rank = rank
        self.node = node
        self.ep = ep
        L = cfg.L
        py, pz = cfg.grid
        gy, gz = rank % py, rank // py  # grid coordinates
        self.Ly, self.Lz = L // py, L // pz
        self.y0, self.z0 = gy * self.Ly, gz * self.Lz  # global origin
        self.local_sites = L * self.Ly * self.Lz
        # The Z faces are split off into the boundary kernel even at NP=1,
        # as the paper's code does; the Y faces only when Y is split, with
        # the 4L edge sites counted once.
        face_sites = 2 * L * self.Ly
        if py > 1:
            face_sites += 2 * L * self.Lz - 4 * L
        bnd = max(face_sites // 2, 1)
        model = HsgKernelModel(node.gpu.spec)
        self.bnd_ns = model.boundary_kernel_ns(bnd, self.local_sites)
        self.blk_ns = model.bulk_kernel_ns(max(self.local_sites // 2 - bnd, 1), self.local_sites)
        # Face message size: the updated-parity sites of one plane.  The
        # CUDA code ships float3 spins (12 B/site — that is what makes the
        # L=256 faces exactly 3 x 128 KiB); validate mode moves the full
        # float64 state so the serial comparison stays bit-exact.
        site_bytes = 24 if cfg.validate else SPIN_BYTES
        self.faces: dict[str, _Face] = {}  # the split faces, in _FACES order
        for name, axis, side, opposite in _FACES:
            if axis == "y" and py > 1:
                peer = (gy + side) % py + py * gz
                self.faces[name] = _Face(
                    name, axis, side, opposite, peer, L * self.Lz // 2 * site_bytes, self.Ly
                )
            elif axis == "z" and pz > 1:
                peer = gy + py * ((gz + side) % pz)
                self.faces[name] = _Face(
                    name, axis, side, opposite, peer, L * self.Ly // 2 * site_bytes, self.Lz
                )
        # With a recovery manager the landing buffers are double-buffered by
        # parity: a recovery window (timeout + replay) skews the ranks by up to
        # one exchange, so a neighbour's next-parity halo can arrive before
        # this rank has unpacked the current one.  The exchange dependency
        # chain bounds the skew at one, so two slots suffice.
        self.slots = 2 if cfg.recovery is not None else 1
        for f in self.faces.values():
            size = max(f.nbytes, 64)
            f.send_gpu = node.gpu.alloc(size)
            f.recv_gpu = node.gpu.alloc(size * self.slots)
            if cfg.transport == "apenet":  # host bounces for the staging modes
                f.send_host = node.runtime.host_alloc(size)
                f.recv_host = node.runtime.host_alloc(size * self.slots)
        # Real data (validate mode): pencil with halo planes on Y and Z.
        self.slab: Optional[np.ndarray] = None
        if cfg.validate:
            self.slab = np.zeros((L, self.Ly + 2, self.Lz + 2, 3))
        # Tags of APEnet+ halos that landed but no exchange has consumed.
        self.arrived: set = set()
        # Instrumentation (ns).
        self.t_net = 0.0
        self.t_bnd = 0.0
        # Streams.
        self.s_bulk = CudaStream(node.runtime.sim, f"r{rank}.bulk")
        self.s_bnd = CudaStream(node.runtime.sim, f"r{rank}.bnd")
        self.s_copy = CudaStream(node.runtime.sim, f"r{rank}.copy")

    # -- numerics (validate mode) ------------------------------------------

    def update_parity(self, parity: int) -> None:
        """Over-relax the owned sites of *parity* (uses current halos)."""
        s = self.slab
        interior = s[:, 1:-1, 1:-1]
        # Summed in the order X + (Y- + Y+) + Z- + Z+: the recovery
        # experiment's pinned energy depends on it.
        h = np.roll(interior, 1, axis=0) + np.roll(interior, -1, axis=0)
        h += s[:, :-2, 1:-1] + s[:, 2:, 1:-1]
        h = h + s[:, 1:-1, :-2] + s[:, 1:-1, 2:]
        updated = overrelax_spins(interior, h)
        x, y, z = np.indices(interior.shape[:3])
        mask = (x + y + self.y0 + z + self.z0) % 2 == parity
        interior[mask] = updated[mask]

    def _plane(self, axis: str, idx: int) -> tuple[np.ndarray, np.ndarray]:
        """Slab plane *idx* along *axis* and the global parity of its sites."""
        L = self.cfg.L
        if axis == "y":
            x, z = np.indices((L, self.Lz))
            return self.slab[:, idx, 1:-1], (x + (self.y0 + idx - 1) % L + z + self.z0) % 2
        x, y = np.indices((L, self.Ly))
        return self.slab[:, 1:-1, idx], (x + y + self.y0 + (self.z0 + idx - 1) % L) % 2

    def pack_face(self, face: _Face, parity: int) -> None:
        """Copy the updated-parity sites of an owned boundary plane into
        the face's send buffer."""
        plane, par = self._plane(face.axis, face.owned)
        raw = np.frombuffer(plane[par == parity].tobytes(), dtype=np.uint8)
        face.send_gpu.data[: len(raw)] = raw

    def unpack_halo(self, face: _Face, parity: int, raw: np.ndarray) -> None:
        """Install received parity sites into the face's halo plane."""
        plane, par = self._plane(face.axis, face.halo)
        plane[par == parity] = np.frombuffer(bytes(raw), dtype=np.float64).reshape(-1, 3)

    def wrap_unsplit(self) -> None:
        """Periodic halos of the axes this rank owns whole (no network)."""
        py, pz = self.cfg.grid
        s, Ly, Lz = self.slab, self.Ly, self.Lz
        if py == 1:
            s[:, 0, 1:-1] = s[:, Ly, 1:-1]
            s[:, Ly + 1, 1:-1] = s[:, 1, 1:-1]
        if pz == 1:
            s[:, 1:-1, 0] = s[:, 1:-1, Lz]
            s[:, 1:-1, Lz + 1] = s[:, 1:-1, 1]


def run_hsg(cfg: HsgConfig) -> HsgResult:
    """Execute one configuration end to end; see :class:`HsgConfig`."""
    sim = Simulator()
    recovery = None
    if cfg.transport == "apenet":
        cluster = _apenet_cluster(sim, cfg)
        recovery = cluster.recovery
        endpoints = [node.endpoint for node in cluster.nodes]
        exchange = _apenet_exchange
    else:
        from ...mpi.gpu_aware import OpenMPIProtocol

        cluster = build_ib_cluster(sim, cfg.np_, pcie_lanes=MPI_PCIE_LANES)
        world = MpiWorld(cluster, protocol_factory=OpenMPIProtocol)
        endpoints = [world.endpoint(r) for r in range(cfg.np_)]
        exchange = _mpi_exchange
    states = [_Pencil(cfg, r, cluster.nodes[r], endpoints[r]) for r in range(cfg.np_)]
    energy_before = _scatter(cfg, states).energy() if cfg.validate else None

    t_start = {}
    procs = [
        sim.process(
            _rank(sim, cfg, st, states, exchange, t_start), name=f"hsg.r{st.rank}"
        )
        for st in states
    ]
    sim.run()
    if not all(p.processed for p in procs):
        raise DeadlockError("HSG ranks deadlocked")

    sites = cfg.L**3
    total = sim.now - max(t_start.values())
    per_spin = 1000.0 / (cfg.sweeps * sites)  # ns -> ps per spin
    spins = None
    energy_after = None
    if cfg.validate:
        spins = np.zeros((cfg.L,) * 3 + (3,))
        for st in states:
            spins[:, st.y0 : st.y0 + st.Ly, st.z0 : st.z0 + st.Lz] = st.slab[:, 1:-1, 1:-1]
        energy_after = SpinLattice((cfg.L,) * 3, spins=spins).energy()
    return HsgResult(
        config=cfg,
        ttot_ps=total * per_spin,
        tbnd_tnet_ps=float(np.mean([st.t_bnd + st.t_net for st in states]) * per_spin),
        tnet_ps=float(np.mean([st.t_net for st in states]) * per_spin),
        total_time_ns=total,
        energy_before=energy_before,
        energy_after=energy_after,
        spins=spins,
        recovery_stats=recovery.stats if recovery is not None else None,
    )


def _apenet_cluster(sim: Simulator, cfg: HsgConfig):
    acfg = DEFAULT_CONFIG.with_(link_bandwidth=cfg.link_bandwidth)
    specs = None
    if cfg.np_ == 1:
        # Single-node L=512 only fits the 6 GB C2070 (§V.D).
        fits = HsgKernelModel(FERMI_2050).fits(cfg.L**3)
        specs = [FERMI_2050 if fits else FERMI_2070]
    return build_apenet_cluster(
        sim, torus_for_ranks(cfg.np_), acfg, gpu_specs=specs,
        faults=cfg.faults, recovery=cfg.recovery,
    )


def _scatter(cfg: HsgConfig, states: list[_Pencil]) -> SpinLattice:
    """Seed a global lattice and scatter pencils (+ initial halos)."""
    ref = SpinLattice((cfg.L, cfg.L, cfg.L), seed=cfg.seed)
    for st in states:
        ys = np.arange(st.y0 - 1, st.y0 + st.Ly + 1) % cfg.L
        zs = np.arange(st.z0 - 1, st.z0 + st.Lz + 1) % cfg.L
        st.slab[:] = ref.spins[:, ys[:, None], zs[None, :]]
    return ref


def _rank(sim, cfg, st: _Pencil, states, exchange, t_start):
    """One rank of either transport: setup, settle, then per parity the
    boundary kernel, the halo exchange and the bulk kernel."""
    gpu = st.node.gpu
    if cfg.transport == "apenet":
        # Registration: halos land in GPU memory unless staging RX too.
        for f in st.faces.values():
            recv = f.recv_host if cfg.p2p_mode == "off" else f.recv_gpu
            yield from st.ep.register(recv.addr, f.nbytes * st.slots)
            yield from st.ep.register(f.send_gpu.addr, f.nbytes)
    yield sim.timeout(us(20))  # registration barrier stand-in
    t_start[st.rank] = sim.now

    for sweep in range(cfg.sweeps):
        for parity in (0, 1):
            if cfg.validate:
                st.update_parity(parity)
            t0 = sim.now
            bnd_ev = st.s_bnd.enqueue(
                lambda d=st.bnd_ns: gpu.compute.execute(KernelLaunch("bnd", d))
            )
            blk_ev = st.s_bulk.enqueue(
                lambda d=st.blk_ns: gpu.compute.execute(KernelLaunch("bulk", d))
            )
            yield bnd_ev
            st.t_bnd += sim.now - t0
            if st.faces:
                t1 = sim.now
                yield from exchange(cfg, st, states, parity, sweep)
                st.t_net += sim.now - t1
            if cfg.validate:
                st.wrap_unsplit()
            yield blk_ev


def _apenet_exchange(cfg, st: _Pencil, states, parity, sweep):
    """One parity's halo exchange as APEnet+ PUTs."""
    ep, runtime = st.ep, st.node.runtime
    # With a recovery manager attached, halos travel as reliable PUTs:
    # delivered exactly once across link kills (replayed over the detour)
    # or the run fails with a structured verdict instead of corrupting
    # physics.
    reliable = ep.recovery is not None
    # Reliable mode double-buffers the landing zones by parity (the slot
    # the peer reads from alternates in lockstep with the one we target).
    slot = parity if reliable else 0
    sends = []
    for f in st.faces.values():
        # In validate mode the outgoing face data is copied into the
        # send buffer (kernel output); data rides the puts.
        if cfg.validate:
            st.pack_face(f, parity)
        far = states[f.peer].faces[f.opposite]
        dst = (far.recv_host if cfg.p2p_mode == "off" else far.recv_gpu).addr + slot * f.nbytes
        for c in range(f.n_chunks):
            off = c * HALO_CHUNK
            n = min(HALO_CHUNK, f.nbytes - off)
            src, kind = f.send_gpu.addr + off, BufferKind.GPU
            if cfg.p2p_mode != "on":
                # TX staging: D2H copy of the chunk, then a host-source put.
                # The RX-only mode pipelines the copies on a stream (the
                # optimized variant that beats full P2P in Table III); the
                # fully-staged mode uses plain synchronous cudaMemcpy, as
                # the simple P2P=OFF code path does.
                host = f.send_host.addr + off
                if cfg.p2p_mode == "rx":
                    yield st.s_copy.enqueue(
                        lambda dst=host, src=src, n=n: memcpy_device_work(runtime, dst, src, n)
                    )
                else:
                    yield from memcpy_sync(runtime, host, src, n)
                src, kind = host, BufferKind.HOST
            tag = ("halo", sweep, parity, f.opposite, c)
            if reliable:
                outcome = yield from ep.reliable_put(
                    f.peer, src, dst + off, n, src_kind=kind, tag=tag
                )
                if not outcome.delivered:
                    raise RuntimeError(
                        f"HSG halo chunk undeliverable ({outcome.verdict} "
                        f"after {outcome.attempts} attempts)"
                    )
            else:
                done = yield from ep.put(f.peer, src, dst + off, n, src_kind=kind, tag=tag)
                sends.append(done)
    # Wait for this exchange's halos by tag: a neighbour that is one
    # exchange ahead (a recovery window skews the ranks) can land its next
    # halos first, and those must count for the next exchange.
    want = {
        ("halo", sweep, parity, f.name, c) for f in st.faces.values() for c in range(f.n_chunks)
    }
    while not want <= st.arrived:
        rec = yield from ep.wait_event()
        st.arrived.add(rec.tag)
    st.arrived -= want
    if cfg.p2p_mode == "off":
        # Drain the host bounces into GPU memory.
        for f in st.faces.values():
            off = slot * f.nbytes
            yield st.s_copy.enqueue(
                lambda dst=f.recv_gpu.addr + off, src=f.recv_host.addr + off, n=f.nbytes: (
                    memcpy_device_work(runtime, dst, src, n)
                )
            )
    # The GPU's P2P engine reads PUT source bytes while the packets go out,
    # so a send buffer may be refilled only after its PUTs complete locally.
    for ev in sends:
        if not ev.processed:
            yield ev
    if cfg.validate:
        for f in st.faces.values():
            recv = f.recv_host if cfg.p2p_mode == "off" else f.recv_gpu
            st.unpack_halo(f, parity, recv.data[slot * f.nbytes : (slot + 1) * f.nbytes])


def _mpi_exchange(cfg, st: _Pencil, states, parity, sweep):
    """One parity's halo exchange as GPU-aware MPI (OpenMPI over IB)."""
    reqs = []
    for f in st.faces.values():
        if cfg.validate:
            st.pack_face(f, parity)
        reqs.append((yield from st.ep.irecv(
            f.peer, f.recv_gpu.addr, f.nbytes, tag=("halo", sweep, parity, f.name)
        )))
        reqs.append((yield from st.ep.isend(
            f.peer, f.send_gpu.addr, f.nbytes, tag=("halo", sweep, parity, f.opposite)
        )))
    yield from st.ep.wait_all(reqs)
    if cfg.validate:
        for f in st.faces.values():
            st.unpack_halo(f, parity, f.recv_gpu.data[: f.nbytes])
