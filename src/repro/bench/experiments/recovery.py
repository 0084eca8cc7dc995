"""Recovery experiment: kill a torus link mid-run and measure the cure.

The `faults` experiment shows the link-level ACK/NAK layer absorbing bit
errors; this one exercises the layer above it (:mod:`repro.recovery`,
after the systemic-fault-awareness line of arXiv:1311.1741): what happens
when a link does not merely corrupt frames but *dies*.

Four scenario groups, all seeded and deterministic:

* **Killed-link goodput** — a stream of reliable PUTs over H-H, G-G P2P
  and G-G host-staged paths; one torus link is killed mid-stream.  The
  table reports goodput before the kill, the recovery gap (the one long
  inter-delivery interval spanning detection + replay), goodput after
  recovery (detoured via the reverse ring channel), time-to-detect and
  the replay/reroute counts.
* **HSG across a link kill** — the distributed Heisenberg Spin Glass run
  (validate mode) with a link killed mid-exchange must produce *exactly*
  the physics observables of the fault-free run: same energy, same spins.
* **Partition** — both channels towards the destination killed: the
  layer must report a structured ``unreachable`` verdict, not hang or
  crash.
* **NIC degradation** — Nios-II stalls and PCIe TLP replays past the
  policy thresholds flip the endpoint into host-staging mode; the stream
  completes degraded and the mode switch is recorded.
"""

from __future__ import annotations

import numpy as np

from ...apenet.buflist import BufferKind
from ...apps.hsg.distributed import HsgConfig, run_hsg
from ...cuda.memcpy import memcpy_sync
from ...faults import FaultPlan
from ...recovery import RecoveryPolicy
from ...units import Gbps, kib, us
from ..harness import ExperimentError, ExperimentResult, register
from ..microbench import _steady_bandwidth, alloc_kind, make_cluster
from ..tables import render_table

H, G = BufferKind.HOST, BufferKind.GPU

#: Master seed (the arXiv id of the APEnet+ fault-awareness follow-up).
SEED = 20131741

#: The victim: rank 0's +X channel towards rank 1.  On the 2-node ring the
#: detour is the distinct -X channel of the same cable pair.
KILL_SITE = "n0.ape->n1.ape[0,+1]"
#: Killing BOTH X channels out of rank 0 partitions the 2-node torus.
PARTITION_SITES = (KILL_SITE, "n0.ape->n1.ape[0,-1]")

#: Same link-limited regime as the `faults` sweep: at the full 28 Gbps the
#: wire has slack that hides the cost of the recovery window.
OVERRIDES = {"link_bandwidth": Gbps(7)}

MSG = kib(64)
#: Mid-stream kill time for the goodput scenarios (sender starts at 10 us).
KILL_AT = us(700)
#: Mid-exchange kill time for the L=32 NP=2 HSG run.
HSG_KILL_AT = us(150)


def _kill_plan(kill_at: float, sites=(KILL_SITE,)) -> FaultPlan:
    """A plan whose only activity is the scheduled link kill(s): a tight
    retry budget and short ACK timeout so detection is fast."""
    return FaultPlan(
        seed=SEED,
        max_retries=2,
        ack_timeout=us(2),
        link_kills=tuple((site, kill_at) for site in sites),
    )


def _killed_stream(path: str, n_msgs: int, kill_at: float = KILL_AT) -> dict:
    """Reliable-PUT stream with a mid-run link kill; per-delivery timing."""
    sim, cluster = make_cluster(
        2, 1, faults=_kill_plan(kill_at), recovery=RecoveryPolicy(), **OVERRIDES
    )
    src_node, dst_node = cluster.nodes[0], cluster.nodes[1]
    staged = path == "G-G staged"
    src_kind = H if path == "H-H" else G
    put_kind = H if staged else src_kind
    dst_kind = H if path == "H-H" or staged else G
    src = alloc_kind(src_node, src_kind, MSG)
    bounce = alloc_kind(src_node, H, MSG) if staged else None
    dst = alloc_kind(dst_node, dst_kind, MSG)
    deliveries: list[float] = []
    outcomes = []

    def receiver():
        yield from dst_node.endpoint.register(dst, MSG)
        for _ in range(n_msgs):
            yield from dst_node.endpoint.wait_event()
            deliveries.append(sim.now)

    def sender():
        yield sim.timeout(us(10))
        if put_kind is G:
            yield from src_node.endpoint.register(src, MSG)
        for i in range(n_msgs):
            addr = src
            if staged:
                yield from memcpy_sync(src_node.runtime, bounce, src, MSG)
                addr = bounce
            out = yield from src_node.endpoint.reliable_put(
                1, addr, dst, MSG, src_kind=put_kind, tag=i
            )
            outcomes.append(out)

    rx = sim.process(receiver())
    sim.process(sender())
    sim.run()
    st = cluster.recovery.stats
    if not rx.processed:
        raise ExperimentError(f"{path}: receiver never finished after the kill")
    if not all(o.delivered for o in outcomes):
        raise ExperimentError(f"{path}: a reliable PUT failed on a survivable kill")
    if len(st.link_deaths) != 1:
        raise ExperimentError(f"{path}: expected exactly 1 link death, got {st.link_deaths}")
    pre = [t for t in deliveries if t < kill_at]
    post = [t for t in deliveries if t >= kill_at]
    if len(pre) < 2 or len(post) < 2:
        raise ExperimentError(
            f"{path}: kill at {kill_at} ns did not land mid-stream "
            f"({len(pre)} pre / {len(post)} post deliveries)"
        )
    return {
        "pre_MBps": MSG * (len(pre) - 1) / (pre[-1] - pre[0]) * 1000.0,
        "gap_us": (post[0] - pre[-1]) / 1000.0,
        "post_MBps": MSG * (len(post) - 1) / (post[-1] - post[0]) * 1000.0,
        "detect_us": st.link_deaths[0]["elapsed_ns"] / 1000.0,
        "replays": st.replays,
        "rerouted": st.packets_rerouted,
        "stats": st,
    }


def _hsg_across_kill() -> dict:
    """HSG validate run with a mid-exchange link kill vs the clean run."""
    clean = run_hsg(HsgConfig(L=32, np_=2, sweeps=2, validate=True))
    killed = run_hsg(
        HsgConfig(
            L=32, np_=2, sweeps=2, validate=True,
            faults=_kill_plan(HSG_KILL_AT),
            recovery=RecoveryPolicy(),
        )
    )
    st = killed.recovery_stats
    if st is None or not st.link_deaths:
        raise ExperimentError(
            f"HSG kill at {HSG_KILL_AT} ns never fired (run ends at "
            f"{killed.total_time_ns} ns)"
        )
    if killed.energy_after != clean.energy_after:
        raise ExperimentError(
            "HSG physics diverged across the link kill: "
            f"{killed.energy_after} != {clean.energy_after}"
        )
    if not np.array_equal(killed.spins, clean.spins):
        raise ExperimentError("HSG spin lattice diverged across the link kill")
    return {"clean": clean, "killed": killed, "stats": st}


def _partition() -> dict:
    """Both channels dead: puts must fail fast with a structured verdict."""
    n_msgs, msg = 4, kib(8)
    sim, cluster = make_cluster(
        2, 1, faults=_kill_plan(us(50), PARTITION_SITES),
        recovery=RecoveryPolicy(), **OVERRIDES
    )
    src_node, dst_node = cluster.nodes[0], cluster.nodes[1]
    src = alloc_kind(src_node, H, msg)
    dst = alloc_kind(dst_node, H, msg)
    outcomes = []

    def receiver():
        # Registers, then waits; after the partition it can never finish.
        yield from dst_node.endpoint.register(dst, msg)
        for _ in range(n_msgs):
            yield from dst_node.endpoint.wait_event()

    def sender():
        yield sim.timeout(us(10))
        for i in range(n_msgs):
            out = yield from src_node.endpoint.reliable_put(
                1, src, dst, msg, src_kind=H, tag=i
            )
            outcomes.append(out)

    sim.process(receiver())
    tx = sim.process(sender())
    sim.run()
    if not tx.processed:
        raise ExperimentError("partitioned sender hung instead of failing fast")
    verdicts = [o.verdict for o in outcomes]
    if "unreachable" not in verdicts:
        raise ExperimentError(f"partition produced no unreachable verdict: {verdicts}")
    st = cluster.recovery.stats
    return {"verdicts": verdicts, "stats": st}


def _degradation(n_msgs: int) -> dict:
    """Sick NIC (Nios stalls + TLP replays) -> transparent host staging."""
    plan = FaultPlan(seed=SEED, tlp_ber=2e-7, nios_stall_rate=0.2)
    policy = RecoveryPolicy(degrade_nios_stalls=4, degrade_tlp_replays=8)
    sim, cluster = make_cluster(2, 1, faults=plan, recovery=policy, **OVERRIDES)
    src_node, dst_node = cluster.nodes[0], cluster.nodes[1]
    src = alloc_kind(src_node, G, MSG)
    dst = alloc_kind(dst_node, G, MSG)
    completions: list[float] = []

    def receiver():
        yield from dst_node.endpoint.register(dst, MSG)
        for _ in range(n_msgs):
            yield from dst_node.endpoint.wait_event()
            completions.append(sim.now)

    def sender():
        yield sim.timeout(us(10))
        yield from src_node.endpoint.register(src, MSG)
        for _ in range(n_msgs):
            yield from src_node.endpoint.put(1, src, dst, MSG, src_kind=G)

    rx = sim.process(receiver())
    sim.process(sender())
    sim.run()
    st = cluster.recovery.stats
    if not rx.processed:
        raise ExperimentError("degraded-mode receiver never finished")
    if not st.degradations:
        raise ExperimentError(
            "NIC sickness never crossed the degradation threshold "
            f"(stalls={cluster.faults.stats.nios_stalls}, "
            f"replays={cluster.faults.stats.tlp_replays})"
        )
    if st.degraded_puts == 0 or st.degraded_puts == st.gpu_puts:
        raise ExperimentError(
            f"degradation must flip mid-stream: {st.degraded_puts}/{st.gpu_puts}"
        )
    mbps = _steady_bandwidth(MSG, completions, n_msgs).MBps
    return {"MBps": mbps, "stats": st, "faults": cluster.faults.stats}


@register("recovery", "Recovery: link kill, detour, replay, degradation", "beyond the paper")
def run_recovery(quick: bool = True) -> ExperimentResult:
    """Kill links mid-run; measure detection, re-routing and replay."""
    n_msgs = 16 if quick else 24

    paths = ("H-H", "G-G P2P", "G-G staged")
    rows = []
    comparisons = []
    streams = {}
    for path in paths:
        r = _killed_stream(path, n_msgs)
        streams[path] = r
        rows.append([
            path, r["pre_MBps"], r["gap_us"], r["post_MBps"],
            r["detect_us"], r["replays"], r["rerouted"],
        ])
        comparisons.append((f"{path} goodput pre-kill", r["pre_MBps"], None, "MB/s"))
        comparisons.append((f"{path} recovery gap", r["gap_us"], None, "us"))
        comparisons.append((f"{path} goodput post-recovery", r["post_MBps"], None, "MB/s"))
        comparisons.append((f"{path} time-to-detect", r["detect_us"], None, "us"))
        comparisons.append((f"{path} replays", float(r["replays"]), None, ""))
        comparisons.append((f"{path} packets rerouted", float(r["rerouted"]), None, ""))

    hsg = _hsg_across_kill()
    hsg_st = hsg["stats"]
    comparisons.append(
        ("HSG energy across kill", float(hsg["killed"].energy_after), None, "")
    )
    comparisons.append(
        ("HSG link deaths", float(len(hsg_st.link_deaths)), None, "")
    )
    comparisons.append(("HSG replays", float(hsg_st.replays), None, ""))

    part = _partition()
    comparisons.append(
        ("partition unreachable verdicts",
         float(part["verdicts"].count("unreachable")), None, "")
    )
    comparisons.append(
        ("partition link deaths", float(len(part["stats"].link_deaths)), None, "")
    )

    deg = _degradation(40 if quick else 64)
    deg_st = deg["stats"]
    comparisons.append(("degraded goodput", deg["MBps"], None, "MB/s"))
    comparisons.append(("degraded puts", float(deg_st.degraded_puts), None, ""))
    comparisons.append(("degraded fraction", deg_st.degraded_fraction(), None, ""))
    comparisons.append(("mode switches", float(len(deg_st.degradations)), None, ""))

    rendered = render_table(
        ["Path", "pre MB/s", "gap us", "post MB/s", "detect us",
         "replays", "rerouted"],
        rows,
        title=f"Killed link mid-stream ({n_msgs} x 64 KiB reliable PUTs, "
        f"kill at {KILL_AT / 1000:.0f} us)",
    ) + (
        f"\n\nHSG across kill: energy {hsg['killed'].energy_after:.6f} == clean "
        f"{hsg['clean'].energy_after:.6f}, spins identical "
        f"({len(hsg_st.link_deaths)} death, {hsg_st.replays} replays, "
        f"{hsg_st.packets_rerouted} pkts rerouted)"
        + "\nPartition (both X channels dead): verdicts "
        + ", ".join(part["verdicts"])
        + f" after {len(part['stats'].link_deaths)} detected deaths"
        + f"\nNIC degradation: {deg_st.degraded_puts}/{deg_st.gpu_puts} GPU puts "
        f"staged via host (fraction {deg_st.degraded_fraction():.4f}, "
        f"{len(deg_st.degradations)} mode switch) -> {deg['MBps']:.0f} MB/s"
    )
    return ExperimentResult(
        "recovery",
        "Link kill, fault-aware re-routing, idempotent replay, degradation",
        rendered,
        comparisons,
        data={
            "paths": list(paths),
            "rows": rows,
            "partition_verdicts": part["verdicts"],
            "hsg_energy": float(hsg["killed"].energy_after),
        },
    )
