"""Dynamic instruction records.

:class:`Instruction` is the unit the pipeline model moves around.  It is a
plain mutable object (``__slots__``-based, not a dataclass) because the
simulator creates and touches millions of them per experiment and attribute
access speed dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.isa.types import BranchKind, InstructionClass


@dataclass(slots=True)
class BranchOutcome:
    """The architectural outcome of a control-flow instruction.

    ``taken`` is meaningful for conditional branches; ``target`` is the
    architectural next PC when the branch is taken (or for unconditional /
    indirect control flow).
    """

    taken: bool
    target: int


class Instruction:
    """One dynamic instruction flowing through the pipeline.

    Attributes
    ----------
    seq:
        Global fetch sequence number (unique per core run, monotonically
        increasing in fetch order; wrong-path instructions get numbers too).
    pc:
        Program counter of the instruction.
    iclass:
        Coarse :class:`~repro.isa.types.InstructionClass`.
    branch_kind:
        :class:`~repro.isa.types.BranchKind`; ``NOT_A_BRANCH`` for
        non-control instructions.
    outcome:
        Architectural :class:`BranchOutcome` for branches on the good path
        (wrong-path branches carry a synthetic outcome).
    address:
        Effective address for loads/stores, else ``None``.
    dep_distance:
        Distance (in dynamic instructions) to the producing instruction of
        this instruction's critical source operand, or 0 if it has no
        in-flight dependence.  The backend uses it to approximate wake-up.
    latency_class:
        Base execution latency in cycles (before cache effects).
    thread_id:
        SMT hardware thread the instruction belongs to.
    on_goodpath:
        True when the instruction is on the eventually-retiring path.
    static_branch_id:
        Identifier of the static branch this dynamic instance came from
        (used by the per-branch MRT ablation), or ``None``.
    """

    __slots__ = (
        "seq",
        "pc",
        "iclass",
        "branch_kind",
        "outcome",
        "address",
        "dep_distance",
        "latency_class",
        "thread_id",
        "on_goodpath",
        "static_branch_id",
        # --- fields filled in by the pipeline as the instruction flows ---
        "fetch_cycle",
        "ready_cycle",
        "issue_cycle",
        "complete_cycle",
        "retired",
        "squashed",
        "mispredicted",
        "conf_token",
        "producer",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        iclass: InstructionClass,
        branch_kind: BranchKind = BranchKind.NOT_A_BRANCH,
        outcome: Optional[BranchOutcome] = None,
        address: Optional[int] = None,
        dep_distance: int = 0,
        latency_class: int = 1,
        thread_id: int = 0,
        on_goodpath: bool = True,
        static_branch_id: Optional[int] = None,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.iclass = iclass
        self.branch_kind = branch_kind
        self.outcome = outcome
        self.address = address
        self.dep_distance = dep_distance
        self.latency_class = latency_class
        self.thread_id = thread_id
        self.on_goodpath = on_goodpath
        self.static_branch_id = static_branch_id

        self.fetch_cycle: int = -1
        self.ready_cycle: int = -1
        self.issue_cycle: int = -1
        self.complete_cycle: int = -1
        self.retired: bool = False
        self.squashed: bool = False
        self.mispredicted: bool = False
        self.conf_token: object = None
        self.producer: Optional["Instruction"] = None

    @property
    def is_branch(self) -> bool:
        return self.branch_kind is not BranchKind.NOT_A_BRANCH

    @property
    def is_conditional_branch(self) -> bool:
        return self.branch_kind is BranchKind.CONDITIONAL

    @property
    def is_memory(self) -> bool:
        return self.iclass in (InstructionClass.LOAD, InstructionClass.STORE)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        kind = self.branch_kind.name if self.is_branch else self.iclass.name
        path = "good" if self.on_goodpath else "bad"
        return f"<Instruction seq={self.seq} pc={self.pc:#x} {kind} {path}path>"
