"""Closed-form normal-case cost model for leader-based BFT protocols.

Covers per-consensus leader load, asymmetric crypto operations, sequential
trusted-component accesses, and the message/byte overhead of commit-proof
forwarding (Decision messages) relative to the plain fast path. All ratios are
exact Fractions so the simulator's integer tallies can be compared without
floating-point slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple


@dataclass(frozen=True)
class SizeModel:
    """Wire-size parameters shared by the analytic model and the simulator.

    The defaults are the single calibration used for every published byte
    overhead point (see README): header 16, hash 32, sig 64, ui 176,
    threshold proof 96 bytes.
    """

    header_bytes: int = 16
    hash_bytes: int = 32
    sig_bytes: int = 64
    ui_bytes: int = 176
    tx_bytes: int = 256
    threshold_proof_bytes: int = 96


@dataclass(frozen=True)
class Linear:
    """A cost of the form coef*f + const, kept symbolic for table checks."""

    coef: int
    const: int

    def at(self, f: int) -> int:
        return self.coef * f + self.const

    def __str__(self) -> str:
        term = "f" if self.coef == 1 else f"{self.coef}f"
        if self.coef and self.const:
            return f"{term}+{self.const}"
        if self.coef:
            return term
        return str(self.const)


@dataclass(frozen=True)
class CostVector:
    """Per-consensus normal-case costs of one protocol."""

    protocol: str
    group_size: Linear
    leader_msgs: Linear       # messages the leader handles, client traffic excluded
    signs: Linear             # asymmetric signatures per replica
    verifies: Linear          # asymmetric verifications per replica
    seq_tc_accesses: Linear   # trusted accesses on the critical path

    def crypto_per_replica(self, f: int) -> int:
        return self.signs.at(f) + self.verifies.at(f)


# Six-row cost table. leader_msgs for the quadratic-communication protocols is
# the leading-order approximation (hence Linear), which is what the published
# comparison states.
COST_TABLE: Dict[str, CostVector] = {
    "PBFT": CostVector("PBFT", Linear(3, 1), Linear(6, 0), Linear(0, 1),
                       Linear(2, 0), Linear(0, 0)),
    "FlexiBFT": CostVector("FlexiBFT", Linear(3, 1), Linear(3, 0), Linear(0, 1),
                           Linear(2, 0), Linear(0, 1)),
    "MinBFT": CostVector("MinBFT", Linear(2, 1), Linear(2, 0), Linear(0, 1),
                         Linear(1, 0), Linear(0, 2)),
    "Zyzzyva": CostVector("Zyzzyva", Linear(3, 1), Linear(3, 0), Linear(0, 1),
                          Linear(0, 1), Linear(0, 0)),
    "FlexiZZ": CostVector("FlexiZZ", Linear(3, 1), Linear(3, 0), Linear(0, 1),
                          Linear(0, 1), Linear(0, 1)),
    "MinZZ": CostVector("MinZZ", Linear(2, 1), Linear(2, 0), Linear(0, 1),
                        Linear(0, 1), Linear(0, 2)),
}


def table1_costs(protocol: str, f: int) -> CostVector:
    if f < 1:
        raise ValueError("f must be >= 1")
    try:
        return COST_TABLE[protocol]
    except KeyError:
        raise ValueError(f"unknown protocol {protocol!r}") from None


def leader_bandwidth_ratio(f: int) -> Fraction:
    """Extra proposal bandwidth of a 3f+1 group relative to a 2f+1 group."""
    if f < 1:
        raise ValueError("f must be >= 1")
    return Fraction(3 * f + 1, 2 * f + 1) - 1


def verification_ratio(protocol_a: str, protocol_b: str) -> Fraction:
    """Leading-order ratio of per-replica verification counts."""
    a = table1_costs(protocol_a, 1).verifies
    b = table1_costs(protocol_b, 1).verifies
    ca = a.coef if a.coef else a.const
    cb = b.coef if b.coef else b.const
    return Fraction(ca, cb)


# -- wire sizes ------------------------------------------------------------
#
# One definition, used both to predict byte totals and to weigh simulator
# sends, so the two agree whenever the message counts do.

def request_size(sizes: SizeModel) -> int:
    return sizes.header_bytes + sizes.tx_bytes + sizes.sig_bytes


def prepare_size(sizes: SizeModel, batch: int) -> int:
    # the proposal embeds the batched requests with their authenticators
    return (sizes.header_bytes + batch * (sizes.tx_bytes + sizes.sig_bytes)
            + sizes.ui_bytes)


def commit_size(sizes: SizeModel) -> int:
    return sizes.header_bytes + sizes.hash_bytes + sizes.ui_bytes


def reply_size(sizes: SizeModel) -> int:
    return sizes.header_bytes + sizes.hash_bytes


def decision_size(sizes: SizeModel, f: int, threshold: bool = False) -> int:
    if threshold:
        return sizes.header_bytes + sizes.threshold_proof_bytes
    return sizes.header_bytes + (f + 1) * sizes.ui_bytes


def checkpoint_size(sizes: SizeModel) -> int:
    return sizes.header_bytes + sizes.hash_bytes + sizes.ui_bytes


# -- fault-free counting -----------------------------------------------------

def fault_free_message_counts(f: int, batch: int, consensus_rounds: int = 1,
                              decisions: bool = True) -> Dict[str, int]:
    """Exact message counts for a fault-free synchronous run.

    Per consensus: every one of batch ops is a client request to all n
    replicas and n replies back; the leader fans the proposal to 2f
    followers; every replica announces its commit to every other; and with
    forwarding on, every non-leader broadcasts one Decision to all replicas
    except the leader and itself.
    """
    n = 2 * f + 1
    k = consensus_rounds
    counts = {
        "request": k * batch * n,
        "prepare": k * 2 * f,
        "commit": k * n * (n - 1),
        "decision": k * (n - 1) * (n - 2) if decisions else 0,
        "reply": k * batch * n,
    }
    counts["total"] = sum(counts.values())
    return counts


def fault_free_byte_total(f: int, batch: int, sizes: SizeModel,
                          consensus_rounds: int = 1, decisions: bool = True,
                          threshold: bool = False) -> int:
    c = fault_free_message_counts(f, batch, consensus_rounds, decisions)
    return (c["request"] * request_size(sizes)
            + c["prepare"] * prepare_size(sizes, batch)
            + c["commit"] * commit_size(sizes)
            + c["decision"] * decision_size(sizes, f, threshold)
            + c["reply"] * reply_size(sizes))


def decision_msg_overhead(f: int, batch: int) -> Fraction:
    """Extra messages per ordered operation from commit-proof forwarding.

    Numerator: (n-1)(n-2) Decisions per consensus, amortized over the batch.
    Denominator: the per-operation fast path, i.e. one request to all n and
    n replies, plus the amortized 2f proposals and n(n-1) commits.
    """
    if f < 1 or batch < 1:
        raise ValueError("f and batch must be >= 1")
    n = 2 * f + 1
    num = Fraction((n - 1) * (n - 2), batch)
    den = 2 * n + Fraction(2 * f + n * (n - 1), batch)
    return num / den


def decision_byte_overhead(f: int, batch: int, sizes: SizeModel,
                           threshold: bool = False) -> Fraction:
    """Byte-weighted analogue of decision_msg_overhead."""
    base = fault_free_byte_total(f, batch, sizes, decisions=False)
    extra = ((2 * f) * (2 * f - 1)) * decision_size(sizes, f, threshold)
    return Fraction(extra, base)


def overhead_row(f: int, batch: int, sizes: SizeModel,
                 threshold: bool = False) -> Dict[str, object]:
    """One analytic sweep row, schema-aligned with the simulator tally CSV."""
    n = 2 * f + 1
    counts = fault_free_message_counts(f, batch)
    return {
        "f": f,
        "n": n,
        "B": batch,
        "delta": 0,
        "decisions": "on",
        "msgs_total": counts["total"],
        "msgs_decision": counts["decision"],
        "bytes_total": fault_free_byte_total(f, batch, sizes),
        "overhead_msgs": float(decision_msg_overhead(f, batch)),
        "overhead_bytes": float(decision_byte_overhead(f, batch, sizes, threshold)),
    }
