"""Scripted faulty behavior for simulator runs.

A faulty replica is an ordinary Replica subclass: it controls which of its
own messages get sent and to whom, and it may drive its own trusted
component, but it cannot forge another component's certificates. Crash
scripts touch no replica logic at all; they schedule component crash,
restore and restart events on the simulator clock.

Scripts:
  equivocate_withhold  leader binds one batch twice (two counter values) and
                       partitions who sees what; half the followers flag the
                       duplicate binding, the rest freeze on the gap
  gap_forever          leader consumes a counter value and never sends the
                       proposal, leaving a permanent gap in its timeline
  silent_repliers      leader and f-1 partners feed exactly one correct
                       replica a full commit quorum and starve the rest
  counter_identity     leader mints fresh counter identities on a
                       non-strict component and runs two value-1 timelines
  crash_tcs            crash k components mid-run, optionally restore from
                       a snapshot or restart with a fresh instance epoch
"""

from __future__ import annotations

from typing import Dict, List, Set

from . import messages as m
from .config import ADVERSARY_PARAMS
from .encoding import _h
from .protocol import Replica, proposal_counter
from .tc import EquivocationRefused, ModeViolation


class _Scripted(Replica):
    """Replica with a send filter and a one-shot attack trigger."""

    def __init__(self, *args, params: Dict):
        super().__init__(*args)
        self.params = params
        self.tripped = False
        self._pass_once = False

    def _keep(self, dst, msg) -> bool:
        return True

    def _filtered(self, effects: List[tuple]) -> List[tuple]:
        if self._pass_once:
            # the turn that stages the attack ships its crafted burst intact
            self._pass_once = False
            return effects
        out = []
        for eff in effects:
            if eff[0] == "send" and not self._keep(eff[1], eff[2]):
                continue
            out.append(eff)
        return out

    def handle(self, msg, now: int) -> List[tuple]:
        return self._filtered(super().handle(msg, now))

    def on_timer(self, kind: str, key, now: int) -> List[tuple]:
        return self._filtered(super().on_timer(kind, key, now))


class EquivocateWithholdLeader(_Scripted):
    """Re-binds one batch at two consecutive counter values, partitioned.

    The first binding goes to the first f followers, the duplicate binding
    to every follower. Recipients of both flag the duplicate; the rest see
    only the second value and freeze on the missing one. In prevention mode
    the second certificate for the same context is refused inside the
    component, the attempt is noted, and the leader has nothing to send but
    the honest proposal.
    """

    def _keep(self, dst, msg) -> bool:
        return not (self.tripped and self.cfg.mode != "prevention")

    def _propose(self, chunk) -> List[tuple]:
        trigger = self.params["trigger"]
        if self.tripped:
            return []
        if self.next_seq != trigger:
            return super()._propose(chunk)
        self.tripped = True
        if self.cfg.mode == "prevention":
            out = super()._propose(chunk)
            seq = trigger
            alt = _h(b"alt" + chunk[0].digest())
            try:
                self.tc.certify_context("prepare", self.view, seq,
                                        m.prepare_digest(self.view, seq, alt))
                out.append(("note", {"ev": "attack_unexpected_success",
                                     "seq": seq}))
            except EquivocationRefused:
                out.append(("note", {"ev": "equivocation_refused", "seq": seq}))
            self.tripped = False  # nothing to equivocate with; keep leading
            return out
        seq = trigger
        bdig = m.batch_digest(chunk)
        ui_x = self.tc.create_ui(m.prepare_digest(self.view, seq, bdig),
                                 counter=proposal_counter(self.view))
        ui_y = self.tc.create_ui(m.prepare_digest(self.view, seq + 1, bdig),
                                 counter=proposal_counter(self.view))
        px = m.Prepare(self.view, seq, chunk, ui_x)
        py = m.Prepare(self.view, seq + 1, chunk, ui_y)
        followers = self.peers
        first = followers[: self.cfg.f]
        out: List[tuple] = [("note", {"ev": "attack_equivocate", "seq": seq,
                                      "values": [ui_x.value, ui_y.value]})]
        out += [("send", ("replica", i), px) for i in first]
        out += [("send", ("replica", i), py) for i in followers]
        self._pass_once = True
        return out


class GapLeader(_Scripted):
    """Consumes a counter value for a proposal it never sends, then goes dark."""

    def _keep(self, dst, msg) -> bool:
        return not self.tripped

    def _propose(self, chunk) -> List[tuple]:
        trigger = self.params["trigger"]
        if self.tripped:
            return []
        if self.next_seq != trigger:
            return super()._propose(chunk)
        self.tripped = True
        bdig = m.batch_digest(chunk)
        pdig = m.prepare_digest(self.view, trigger, bdig)
        if self.cfg.mode == "prevention":
            self.tc.certify_context("prepare", self.view, trigger, pdig)
        else:
            self.tc.create_ui(pdig, counter=proposal_counter(self.view))
        return [("note", {"ev": "attack_gap", "seq": trigger})]


class SilentRepliersLeader(_Scripted):
    """Sends each proposal only to the colluders and one correct replica."""

    def _keep(self, dst, msg) -> bool:
        if not isinstance(msg, m.Prepare) or dst[0] != "replica":
            return False
        return dst[1] in range(1, self.cfg.f + 1)


class SilentPartner(_Scripted):
    """Attests normally but shows the attestation to the leader and one
    chosen correct replica, keeping the proposal pipeline alive while the
    other correct replicas see nothing."""

    def _keep(self, dst, msg) -> bool:
        return (isinstance(msg, m.Commit) and not msg.echo
                and dst in (("replica", 0), ("replica", self.cfg.f)))


class CounterIdentityLeader(_Scripted):
    """Runs two parallel counter timelines, both starting at value 1.

    On the first client request the leader mints two fresh counters and
    certifies two different first batches, one per counter, splitting the
    followers. Needs a non-strict component; a strict one refuses the mint
    and the leader falls back to honest operation. Whether followers accept
    two value-1 certificates is the admission side's counter policy, which
    is the point of the demonstration.
    """

    def _keep(self, dst, msg) -> bool:
        return not self.tripped

    def on_client_request(self, req: m.Request) -> List[tuple]:
        if self.tripped or not self._auth_ok(req):
            return super().on_client_request(req)
        self.tripped = True
        out: List[tuple] = [("note", {"ev": "attack_counter_identity"})]
        try:
            q1 = self.tc.flexi_create_counter()
            q2 = self.tc.flexi_create_counter()
        except ModeViolation:
            out.append(("note", {"ev": "mode_violation_refused"}))
            self.tripped = False
            return out + super().on_client_request(req)
        chunk_a, chunk_b = (req,), ()
        bda, bdb = m.batch_digest(chunk_a), m.batch_digest(chunk_b)
        ui1 = self.tc.create_ui(m.prepare_digest(self.view, 1, bda), counter=q1)
        ui2 = self.tc.create_ui(m.prepare_digest(self.view, 1, bdb), counter=q2)
        pa = m.Prepare(self.view, 1, chunk_a, ui1)
        pb = m.Prepare(self.view, 1, chunk_b, ui2)
        followers = self.peers
        out.append(("note", {"ev": "parallel_timelines",
                             "counters": [ui1.counter, ui2.counter],
                             "values": [ui1.value, ui2.value]}))
        out += [("send", ("replica", i), pa) for i in followers[: self.cfg.f]]
        out += [("send", ("replica", i), pb) for i in followers[self.cfg.f:]]
        self._pass_once = True
        return out


_LEADER_SCRIPTS = {
    "equivocate_withhold": EquivocateWithholdLeader,
    "gap_forever": GapLeader,
    "silent_repliers": SilentRepliersLeader,
    "counter_identity": CounterIdentityLeader,
}


def _params(cfg) -> Dict:
    """cfg.adversary's parameters: each default, overridden from the config."""
    return {name: cfg.adversary_params.get(name, default)
            for name, (_, default) in ADVERSARY_PARAMS[cfg.adversary].items()}


def install(sim) -> Set[int]:
    """Swap in scripted replicas / schedule admin events. Returns faulty ids."""
    cfg = sim.cfg
    if cfg.adversary == "none":
        return set()
    params = _params(cfg)
    if cfg.adversary == "crash_tcs":
        k = cfg.f if params["k"] is None else params["k"]
        targets = params["targets"]
        if targets is None:
            targets = list(range(cfg.n - 1, cfg.n - 1 - k, -1))
        for rid in targets:
            for action in ("crash", "restore", "restart"):
                at = params[f"{action}_at_ns"]
                if at is not None:
                    sim.schedule_admin(at, f"tc_{action}", {"replica": rid})
        return set()
    byz = {0}
    old = sim.replicas[0]
    sim.replicas[0] = _LEADER_SCRIPTS[cfg.adversary](
        0, cfg, old.tc, sim.directory, old.client_keys, params=params)
    if cfg.adversary == "silent_repliers":
        for rid in range(1, cfg.f):
            prev = sim.replicas[rid]
            sim.replicas[rid] = SilentPartner(rid, cfg, prev.tc, sim.directory,
                                              prev.client_keys, params=params)
            byz.add(rid)
    return byz
