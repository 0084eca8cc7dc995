"""Fault plans and the structured failure escalation type.

A :class:`FaultPlan` is a frozen value object describing *what* can go
wrong in a run — bit-error rates, drop probabilities, firmware stalls —
plus the recovery policy (retry budget, retransmission timeout, backoff).
Being frozen and hashable, a plan can participate in cache keys and be
shipped to worker processes; the mutable sampling state lives in
:class:`~repro.faults.injector.FaultInjector`.

Rates follow the APEnet+ follow-up papers' error-management work
(arXiv:1311.1741, arXiv:2201.01088): link errors are modelled per bit
(CRC detects them at the receiving port), PCIe TLP errors per wire byte
(LCRC triggers a transparent replay), and the Nios II can be stalled or
slowed to model firmware pathologies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..units import us

__all__ = ["FaultPlan", "LinkFailure"]


class LinkFailure(RuntimeError):
    """A link gave up on a packet after exhausting its retry budget.

    Structured: carries the failing site, the attempt count, the time
    spent recovering, and the last observed fault kind — the fields a
    systemic fault-awareness layer would escalate.  The same record is
    appended to :class:`~repro.sim.stats.FaultStats` before raising, so
    the failure is observable even if the exception is swallowed.
    """

    def __init__(
        self,
        site: str,
        attempts: int,
        elapsed_ns: float,
        kind: str = "",
        src_coord=None,
        dst_coord=None,
        dim=None,
        direction=None,
    ):
        self.site = site
        self.attempts = attempts
        self.elapsed_ns = elapsed_ns
        self.kind = kind
        self.src_coord = src_coord
        self.dst_coord = dst_coord
        self.dim = dim
        self.direction = direction
        where = ""
        if src_coord is not None and dst_coord is not None:
            where = f" at {src_coord}->{dst_coord}"
            if dim is not None and direction is not None:
                # "XYZ" indexing kept local to avoid a faults -> net import.
                where += f" [{'XYZ'[dim]}{'+' if direction > 0 else '-'}]"
        super().__init__(
            f"{site}: packet abandoned after {attempts} attempts"
            f"{where} ({elapsed_ns:.0f} ns spent, last fault: {kind or 'unknown'})"
        )

    @property
    def located(self) -> bool:
        """True when the failure carries torus coordinates."""
        return self.src_coord is not None and self.dst_coord is not None


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic, seeded description of the faults to inject."""

    #: Master seed; every injection site derives an independent stream
    #: from (seed, site name), so sampling is independent of event order.
    seed: int = 0

    # ------------------------------------------------------------------
    # Torus links: per-bit error rate (CRC failure at the receiver) and
    # whole-packet loss (e.g. a desynchronised serdes eating a frame).
    # ------------------------------------------------------------------
    link_ber: float = 0.0
    link_drop_rate: float = 0.0

    # ------------------------------------------------------------------
    # PCIe: TLP bit errors; LCRC-detected, recovered by the data-link
    # layer's transparent replay (the TLP re-occupies the wire).
    # ------------------------------------------------------------------
    tlp_ber: float = 0.0

    # ------------------------------------------------------------------
    # Nios II firmware: occasional stalls (interrupt storms, queue-scan
    # pathologies) and a uniform slowdown factor.
    # ------------------------------------------------------------------
    nios_stall_rate: float = 0.0
    nios_stall_ns: float = us(5)
    nios_slowdown: float = 1.0

    # ------------------------------------------------------------------
    # Recovery policy (link-level ACK/NAK retransmission).
    # ------------------------------------------------------------------
    max_retries: int = 8
    ack_timeout: float = us(1)  # replay timer for lost (un-NAKed) packets
    backoff: float = 2.0  # exponential backoff factor on the replay timer

    # ------------------------------------------------------------------
    # Hard link kills: ((site_name, time_ns), ...).  From *time_ns* on,
    # every traversal of the named link is eaten — the retransmission
    # machinery exhausts its budget deterministically and escalates, which
    # is what the recovery layer's failure detector consumes.
    # ------------------------------------------------------------------
    link_kills: tuple = ()

    def __post_init__(self):
        for name in ("link_ber", "link_drop_rate", "tlp_ber", "nios_stall_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v!r} must be a probability in [0, 1]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.ack_timeout <= 0:
            raise ValueError("ack_timeout must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.nios_slowdown < 1.0:
            raise ValueError("nios_slowdown must be >= 1")
        if self.nios_stall_ns < 0:
            raise ValueError("nios_stall_ns must be non-negative")
        for kill in self.link_kills:
            if (
                not isinstance(kill, tuple)
                or len(kill) != 2
                or not isinstance(kill[0], str)
                or not isinstance(kill[1], (int, float))
                or not kill[1] >= 0
            ):
                raise ValueError(
                    f"link_kills entries must be (site, time_ns>=0) tuples, got {kill!r}"
                )
