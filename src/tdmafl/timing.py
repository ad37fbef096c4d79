"""Closed-form slot accounting for TDMA-scheduled federated training.

Everything here is pure arithmetic on the scenario constants, all slot counts:
per-round compute (``compute_slots``) and communication costs, the average
round length under pipelined (asynchronous) scheduling, the exact downlink end
and round count of every run (the schedule law, for every deferral), the
staleness law induced by group rotation, and the largest downlink deferral
that keeps the pipeline saturated. A spec's rate becomes slots in the CLI.

Average round lengths are kept as exact ``Fraction`` values because the
pipelined average divides an integer slot count by the groups in flight; rounding
here would corrupt horizon-to-round conversions for long runs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count, islice, repeat

from .errors import ConfigError


def require_integer(name: str, value, minimum: int) -> None:
    """Raise ConfigError unless ``value`` is an integer (not a bool) >= ``minimum``."""
    if type(value) is int and value >= minimum:
        return  # fast path: the Integral ABC check alone costs about a microsecond
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_real(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is a real number (not a bool) whose float is finite."""
    if type(value) is float and -math.inf < value < math.inf:
        return  # fast path: the Real ABC check is a fifth of a cold SystemConfig build
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return
        except OverflowError:  # an integer beyond the float range, such as 10**400
            pass
    raise ConfigError(f"{name} must be a finite real number, got {value!r}")


# The compute cost first, as a spec that gives a rate checks H and B first.
_INTEGER_FIELDS = (
    ("compute_slots", 1),
    ("local_steps", 1),
    ("batch_size", 1),
    ("num_devices", 1),
    ("group_size", 1),
    ("slots_per_transfer", 1),
    ("horizon", 1),
    ("intentional_delay", 0),
)


@dataclass(frozen=True)
class SystemConfig:
    """All scenario constants for one federated training run.

    Attributes:
        num_devices: N, number of devices holding data shards.
        group_size: S, devices that upload in each training round; it must
            divide N, so the devices form G = N / S equal TDMA groups.
        compute_slots: tau_comp, slots one local update takes (H steps of B
            samples). An experiment spec may give a processing rate q
            instead, which sets it to ceil(H * B / q).
        slots_per_transfer: r, slots needed for one model upload or download.
        local_steps: H, gradient steps per local update.
        batch_size: B, mini-batch size per gradient step.
        step_size: eta, server step size.
        horizon: T, total slot budget for the run.
        intentional_delay: alpha, rounds a device defers its downlink
            (0 recovers plain asynchronous operation).
    """

    num_devices: int
    group_size: int
    compute_slots: int
    slots_per_transfer: int = 1
    local_steps: int = 1
    batch_size: int = 1
    step_size: float = 0.01
    horizon: int = 50_000
    intentional_delay: int = 0

    def __post_init__(self) -> None:
        for name, minimum in _INTEGER_FIELDS:
            require_integer(name, getattr(self, name), minimum)
        require_real("step_size", self.step_size)
        if self.step_size <= 0:
            raise ConfigError(f"step_size must be positive, got {self.step_size}")
        if self.num_devices % self.group_size != 0:  # also rejects S > N
            raise ConfigError(
                f"group_size must divide num_devices (TDMA groups are equal), got "
                f"group_size={self.group_size} with num_devices={self.num_devices}"
            )
        if self.intentional_delay > self.num_groups - 1:
            raise ConfigError(
                f"intentional_delay must be <= num_groups - 1 = {self.num_groups - 1}, "
                f"got {self.intentional_delay}"
            )

    @property
    def num_groups(self) -> int:
        """G, the number of TDMA groups: N / S."""
        return self.num_devices // self.group_size

    @property
    def tau_comm(self) -> int:
        """Slots of channel time per round: r * (S + 1), i.e. S uploads plus one broadcast."""
        return self.slots_per_transfer * (self.group_size + 1)

    @property
    def round_length(self) -> Fraction:
        """Exact steady slots per round, for every alpha: P / m (see downlink_ends).

        That is max(tau_comm, (tau_comp + tau_comm) / (G - alpha)); at alpha = 0 it
        is the paper's asynchronous round length, and only alpha > alpha* lengthens it.
        """
        m, _, period = self.rotation()
        return Fraction(period, m)

    def rounds_closed_form(self) -> int:
        """floor(T / L), the paper's round count, L being round_length at alpha = 0.

        L ignores the deferral, and one above optimal_intentional_delay(self)
        lengthens rounds, so there the count is a ConfigError. Within the domain
        it exceeds the exact count, rounds_exact(), by about tau_comp / L rounds:
        it ignores the first tau_comp slots, which pass before the first upload.
        """
        alpha_star = optimal_intentional_delay(self)
        if self.intentional_delay > alpha_star:
            raise ConfigError(f"rounds_closed_form holds only up to alpha* = {alpha_star}")
        return math.floor(Fraction(self.horizon) / self.round_length)

    def rotation(self) -> tuple[int, int, int]:
        """(m, Delta, P): groups in flight, idle gap and period of the law; see downlink_ends."""
        m = self.num_groups - self.intentional_delay
        tau_comp, tau_comm = self.compute_slots, self.tau_comm
        delta = max(0, tau_comp - (m - 1) * tau_comm)
        return m, delta, m * tau_comm + delta

    def rounds_exact(self) -> int:
        """K, the number of rounds a run completes, for every alpha.

        Round 0 always launches, and round k + 1 launches iff E_k <= T (see
        downlink_ends). If T < tau_comp + tau_comm, round 0 ends past the
        horizon and no training round completes within it: a ConfigError.
        Otherwise K = 2 + q*m + min(m - 1, floor((T - tau_comp - q*P) / tau_comm) - 1)
        with q = floor((T - tau_comp - tau_comm) / P). So every run completes
        K >= 2 rounds, as E_0 = tau_comp + tau_comm <= T launches round 1, and
        K = 2 at T = tau_comp + tau_comm.
        """
        m, _, period = self.rotation()
        tau_comp, tau_comm, horizon = self.compute_slots, self.tau_comm, self.horizon
        if horizon < tau_comp + tau_comm:
            raise ConfigError(f"no training round completes within the {horizon}-slot horizon")
        q = (horizon - tau_comp - tau_comm) // period
        return 2 + q * m + min(m - 1, (horizon - tau_comp - q * period) // tau_comm - 1)

    def downlink_ends(self, rounds: int) -> list[int]:
        """Downlink end slot of rounds 0 .. rounds - 1; rounds_exact() of them complete.

        This is the schedule law, exact for every alpha. Let m = G - alpha and
        E_k the clock after round k (its downlink end + 1). Round k uploads
        the group that started right after round k - m (at slot 0 for k < m),
        so E_k = max(E_{k-1}, E_{k-m} + tau_comp) + tau_comm with E_j = 0 for
        j < 0. Unrolled, E_k = tau_comp + (k + 1)*tau_comm + floor(k/m)*Delta
        with Delta = max(0, tau_comp - (m - 1)*tau_comm): the channel idles
        Delta slots once every m rounds, so m rounds advance the clock by
        P = m*tau_comm + Delta = max(m*tau_comm, tau_comp + tau_comm).

        So the ends come in blocks of m rounds, block q being the range from
        E_{qm} - 1 = tau_comp + tau_comm - 1 + q*P in steps of tau_comm, and the
        list is those ranges chained and cut at ``rounds``. The slots are
        Python ints, exact past 2**63.
        """
        m, _, period = self.rotation()
        tau_comm = self.tau_comm
        first = self.compute_slots + tau_comm - 1
        blocks = map(range, count(first, period), count(first + m * tau_comm, period),
                     repeat(tau_comm))
        return list(islice(chain.from_iterable(blocks), rounds))


def idfl_staleness(round_index: int, cfg: SystemConfig) -> int:
    """Staleness of uploads in a round when downlinks are deferred by alpha.

    The first G - alpha rounds still consume the initial model, so staleness
    grows with the round index; from then on every upload is exactly
    G - 1 - alpha rounds old. With alpha = 0 this reduces to the plain
    rotation law.
    """
    if round_index < 0:
        raise ConfigError(f"round_index must be >= 0, got {round_index}")
    return min(round_index, cfg.num_groups - 1 - cfg.intentional_delay)


def optimal_intentional_delay(cfg: SystemConfig) -> int:
    """Largest downlink deferral that leaves the round length unchanged.

    alpha* is the free deferral, the largest that costs no rounds; it is not
    the loss-optimal one. Deferral cuts staleness, but stale steps can also
    contract like momentum, so whether alpha* lowers the final loss, and by
    how much, depends on eta * lambda, S and H. What deferral does widen is
    the stable range: with a = 1 - (1 - eta * lambda)^H, a mode at staleness
    d is stable iff 0 < a < 2 sin(pi / (4d + 2)) (Levin and May, 1976).

    By the schedule law (see SystemConfig.downlink_ends), deferral alpha moves
    no round iff Delta = 0, i.e. tau_comp <= (G - 1 - alpha) * tau_comm. So
    alpha* = max(0, G - 1 - ceil(tau_comp / tau_comm)): 0 when compute already
    fills the rotation gap, and the steady staleness is d* = G - 1 - alpha*.
    """
    return max(0, cfg.num_groups - 1 - math.ceil(Fraction(cfg.compute_slots, cfg.tau_comm)))
