"""The benchmark's workloads: fixed sets of calls the registered experiments make.

A workload is a pool of *points*.  Each point is one call of the
simulator's public API with the arguments an experiment of
``python -m repro.bench`` uses for one row or curve point (fewer messages
where a full point would take seconds), or one whole quick experiment.
A point returns JSON-able values that are pure functions of the simulator
(the DES is seedless), so every answer is checked for exact equality
against ``golden.json``.  Regenerate that file only for a deliberate
change of the model::

    python3 perfbench/workloads.py --write-golden
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"


def _points() -> dict:
    from repro.apenet.buflist import BufferKind
    from repro.apps.bfs import BfsConfig, run_bfs
    from repro.apps.hsg import HsgConfig, run_hsg
    from repro.bench import microbench as mb
    from repro.bench.engine import ExecutionEngine, deterministic_view
    from repro.faults import FaultPlan
    from repro.mpi.osu import osu_bandwidth, osu_latency
    from repro.recovery import RecoveryPolicy
    from repro.scale import BulkTransfer, FlowNetwork, run_exact
    from repro.scale.bfs import run_scale_bfs
    from repro.units import kib, us

    H, G = BufferKind.HOST, BufferKind.GPU
    kinds = {"H": H, "G": G}

    def uni(combo, size, n=None):
        src, dst = kinds[combo[0]], kinds[combo[1]]
        return lambda: [mb.unidirectional_bandwidth(src, dst, size, n_messages=n).MBps]

    def hsg(L, np_, **kw):
        def point():
            r = run_hsg(HsgConfig(L=L, np_=np_, sweeps=1, **kw))
            return [r.ttot_ps, r.tbnd_tnet_ps, r.tnet_ps]

        return point

    def bfs(scale, np_, transport):
        def point():
            r = run_bfs(BfsConfig(scale=scale, np_=np_, transport=transport, validate=False))
            return [r.teps, r.traversed, r.n_levels]

        return point

    # The `recovery` experiment's HSG-across-kill scenario: rank 0's +X
    # channel dies mid-exchange and traffic detours over -X.
    def hsg_kill(L, kill_us):
        def point():
            plan = FaultPlan(
                seed=20131741,
                max_retries=2,
                ack_timeout=us(2),
                link_kills=(("n0.ape->n1.ape[0,+1]", us(kill_us)),),
            )
            cfg = HsgConfig(L=L, np_=2, sweeps=2, faults=plan, recovery=RecoveryPolicy())
            r = run_hsg(cfg)
            st = r.recovery_stats
            return [r.ttot_ps, r.tnet_ps, st.replays, st.packets_rerouted]

        return point

    # The `scale` experiment's BFS rows and parity scenario, one dead link.
    dead = ((0, 0, 1),)

    def scale_bfs(n, graph_scale):
        def point():
            r = run_scale_bfs((n, n, n), graph_scale, seed=1, dead_links=dead, shards=4)
            return [r.teps, r.levels_checksum, r.comm_bytes, r.max_link_load]

        return point

    batch = [
        BulkTransfer(0, 13, 8192, 0.0),
        BulkTransfer(1, 26, 5000, us(150.0)),
        BulkTransfer(2, 10, 2048, us(300.0), src_kind=G, dst_kind=G),
        BulkTransfer(14, 3, 65536, us(450.0)),
        BulkTransfer(5, 22, 300, us(700.0)),
        BulkTransfer(9, 4, 12000, us(850.0)),
    ]
    crowd = [BulkTransfer(i, (7 * i + 5) % 216, 4096 * (1 + i % 9), us(3 * i)) for i in range(48)]

    def aggregates(agg):
        return [
            agg.bytes_delivered,
            list(agg.completions),
            agg.makespan,
            sorted([list(k), v] for k, v in agg.link_packets.items()),
        ]

    def experiment(exp_id):
        def point():
            payload = ExecutionEngine().execute(exp_id, quick=True)
            if "error" in payload:
                raise RuntimeError(payload["error"])
            blob = json.dumps(deterministic_view(payload), sort_keys=True)
            return [payload["comparisons"], hashlib.sha256(blob.encode()).hexdigest()]

        return point

    return {
        "p2p": {
            **{f"uni {c} {s}": uni(c, s) for c in ("HH", "HG", "GH", "GG") for s in (512, kib(8))},
            "uni GG 65536x8": uni("GG", kib(64), 8),
            "uni HH 65536x8": uni("HH", kib(64), 8),
            "loopback G 8192": lambda: [mb.loopback_read_bandwidth(G, kib(8)).MBps],
            **{f"pingpong GG {s}": (lambda s=s: [mb.pingpong_latency(G, G, s).half_rtt])
               for s in (32, kib(8))},
        },
        "staged_ib": {
            **{f"staged {s}": (lambda s=s: [mb.staged_unidirectional_bandwidth(s).MBps])
               for s in (512, kib(8))},
            **{f"staged pingpong {s}": (lambda s=s: [mb.staged_pingpong_latency(s).half_rtt])
               for s in (32, kib(8))},
            **{f"osu bw {s}": (lambda s=s: [osu_bandwidth(s, gpu_buffers=True, window=8, iterations=2)])
               for s in (512, kib(8), kib(64))},
            **{f"osu lat {s}": (lambda s=s: [osu_latency(s)]) for s in (32, kib(8))},
        },
        "apps": {
            **{f"hsg 32x2 {m}": hsg(32, 2, p2p_mode=m) for m in ("on", "rx", "off")},
            "hsg 32x2 mpi": hsg(32, 2, transport="mpi"),
            "hsg 64x4 on": hsg(64, 4),
            "hsg 64x4 mpi": hsg(64, 4, transport="mpi"),
            **{f"bfs 10x{n} {t}": bfs(10, n, t) for n in (2, 4) for t in ("apenet", "ib")},
        },
        "fault_scale": {
            **{f"hsg kill 32 @{t}us": hsg_kill(32, t) for t in (50, 150, 300)},
            "hsg kill 64 @150us": hsg_kill(64, 150),
            "scale bfs 4^3 10": scale_bfs(4, 10),
            "scale bfs 4^3 11": scale_bfs(4, 11),
            "scale bfs 6^3 10": scale_bfs(6, 10),
            "exact 3^3": lambda: aggregates(run_exact((3, 3, 3), batch, dead_links=dead)),
            "flow 6^3 crowd": lambda: aggregates(
                FlowNetwork((6, 6, 6), dead_links=dead).run_transfers(crowd)
            ),
        },
        "sweep": {
            exp_id: experiment(exp_id)
            for exp_id in ("fig3", "fig8", "fig10", "ext_get", "ablation_memcpy", "ablation_scaleout")
        },
    }


WORKLOAD_NAMES = ("p2p", "staged_ib", "apps", "fault_scale", "sweep")


def points(workload: str) -> dict:
    """``{point id: zero-argument callable}`` of one workload."""
    return _points()[workload]


def canonical(value):
    """The JSON form of an answer, as ``golden.json`` stores it."""
    return json.loads(json.dumps(value))


def golden(workload: str) -> dict:
    """Committed answers of one workload's points."""
    return json.loads(GOLDEN.read_text())[workload]


def write_golden() -> None:
    """Answer every point once and store the answers in ``golden.json``."""
    table = {name: {pid: canonical(fn()) for pid, fn in _points()[name].items()}
             for name in WORKLOAD_NAMES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-golden"]:
        sys.exit("usage: python3 perfbench/workloads.py --write-golden")
    sys.path.insert(0, str(HERE.parent / "src"))
    write_golden()
