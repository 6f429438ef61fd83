"""Normalization of colorings along a 5-vertex Kierstead path.

Given a coloring of G minus a critical edge ab and a Kierstead path
(a, b, u, s, t) whose far end shares at least three missing colors with
{a, b}, rewrite the coloring by Kempe changes until the path carries the
canonical pattern:

    (i)   the color of bu is missing at a and at t,
    (ii)  the color of us is missing at b and at t,
    (iii) the color of st is missing at a.

On hosts where the ambient assumptions are violated (the edge is not
actually critical), the chain facts the rewriting relies on can fail; each
failure that admits a constructive repair is turned into a full proper
coloring of G instead, which certifies the violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import _color_one_edge
from .coloring import (
    AssignColor,
    ColoringError,
    PartialEdgeColoring,
    ScriptError,
    SwapChainAt,
    SwapScript,
    apply_script,
)
from .graph import edge_key
from .report import VerificationReport, failing, passing
from .structures import KiersteadPath

MAX_SWAPS = 24
MAX_ROUNDS = 40


@dataclass
class Normalized:
    """Outcome: the rewritten coloring achieving the canonical pattern."""

    coloring: PartialEdgeColoring
    alpha: int  # color of bu, missing at a and t
    beta: int   # color of us, missing at b and t
    gamma: int  # color of st, missing at a
    trace: SwapScript
    swap_count: int


@dataclass
class ProperColoring:
    """Outcome: a full proper coloring of the host graph, certifying that
    the uncolored edge was not critical after all."""

    coloring: PartialEdgeColoring
    trace: SwapScript
    swap_count: int


NormalizationOutcome = Normalized | ProperColoring


class HypothesisError(ValueError):
    """The path's far end shares fewer than three missing colors with the
    root pair."""


class NormalizeDiagnosticError(RuntimeError):
    """The rewriting reached a state outside every handled case; carries
    the trace so the failure can be audited."""

    def __init__(self, message: str, trace: SwapScript):
        super().__init__(f"{message}\ntrace:\n{trace.render()}")
        self.trace = trace


class _Finished(Exception):
    """Internal: a constructive escape completed the whole coloring."""

    def __init__(self, outcome: ProperColoring):
        self.outcome = outcome


class _Normalizer:
    def __init__(self, col: PartialEdgeColoring, path: KiersteadPath):
        if len(path.vertices) != 5:
            raise ValueError("normalization needs a 5-vertex path")
        path.validate(col)
        self.col = col.copy()
        self.a, self.b, self.u, self.s, self.t = path.vertices
        self.trace = SwapScript()
        self.swaps = 0
        if len(self._gamma_set()) < 3:
            raise HypothesisError(
                "far end shares fewer than 3 missing colors with the root pair"
            )

    # -- bookkeeping ---------------------------------------------------------

    def _gamma_set(self) -> set[int]:
        c = self.col
        return c.missing(self.t) & (c.missing(self.a) | c.missing(self.b))

    def _edge_colors(self) -> tuple[int | None, int | None, int | None]:
        c = self.col
        return (
            c.color_of((self.b, self.u)),
            c.color_of((self.u, self.s)),
            c.color_of((self.s, self.t)),
        )

    def goal_reached(self) -> bool:
        c = self.col
        cbu, cus, cst = self._edge_colors()
        return (
            cbu is not None
            and cus is not None
            and cst is not None
            and c.is_missing(self.a, cbu)
            and c.is_missing(self.t, cbu)
            and c.is_missing(self.b, cus)
            and c.is_missing(self.t, cus)
            and c.is_missing(self.a, cst)
        )

    def swap_at(self, v: int, x: int, y: int) -> None:
        self.col.kempe_swap_at(v, x, y)
        self.trace.append(SwapChainAt(v, x, y))
        self.swaps += 1
        if self.swaps > MAX_SWAPS:
            raise NormalizeDiagnosticError(
                f"exceeded the {MAX_SWAPS}-swap bound", self.trace
            )
        if not self.col.validate():
            raise self.diagnostic("swap left an improper coloring")

    def diagnostic(self, msg: str) -> NormalizeDiagnosticError:
        return NormalizeDiagnosticError(msg, self.trace)

    # -- constructive escapes -------------------------------------------------

    def escape_if_root_colorable(self) -> None:
        """If a and b share a missing color, the uncolored edge can be
        colored directly, finishing a full coloring."""
        c = self.col
        shared = c.missing(self.a) & c.missing(self.b)
        if shared:
            color = min(shared)
            c.color_edge((self.a, self.b), color)
            self.trace.append(AssignColor(edge_key(self.a, self.b), color))
            if not c.is_full():
                raise self.diagnostic("root edge colored but coloring not full")
            raise _Finished(ProperColoring(c, self.trace, self.swaps))

    def require_root_linked(self, i: int, j: int) -> None:
        """The root endpoints must be (i, j)-linked for i missing at a and
        j missing at b; when they are not, one swap makes j missing at both
        and the root edge gets colored."""
        c = self.col
        if not (c.is_missing(self.a, i) and c.is_missing(self.b, j)):
            raise self.diagnostic(
                f"root linkage queried for non-missing pair ({i},{j})"
            )
        if c.are_linked(self.a, self.b, i, j):
            return
        self.swap_at(self.a, i, j)
        self.escape_if_root_colorable()
        raise self.diagnostic("root unlinked but no shared color after swap")

    def require_linked(self, x: int, y: int, cx: int, cy: int, fact: str) -> None:
        """Chain facts promised by the fan package for genuine instances;
        a failure means the instance violates the ambient assumptions, so
        try to finish the coloring and otherwise give up loudly."""
        if self.col.are_linked(x, y, cx, cy):
            return
        self.try_completion_escape()
        raise self.diagnostic(
            f"expected {x} and {y} to be ({cx},{cy})-linked ({fact})"
        )

    def try_completion_escape(self) -> None:
        """Attempt to complete the single uncolored edge within k colors by
        the fan-rotation routine; succeeds only on non-genuine hosts."""
        for e in ((self.a, self.b), (self.b, self.a)):
            work = self.col.copy()
            try:
                if not work.missing(e[0]) or not work.missing(e[1]):
                    continue
                _color_one_edge(work, edge_key(*e))
            except ColoringError:
                continue
            if work.is_full() and work.validate():
                self.col = work
                raise _Finished(ProperColoring(work, self.trace, self.swaps))

    # -- the rewriting loop ----------------------------------------------------

    def run(self) -> NormalizationOutcome:
        try:
            for _ in range(MAX_ROUNDS):
                self.escape_if_root_colorable()
                if self.goal_reached():
                    cbu, cus, cst = self._edge_colors()
                    if not self.col.validate():
                        raise self.diagnostic("normalized coloring is improper")
                    return Normalized(
                        self.col, cbu, cus, cst, self.trace, self.swaps
                    )
                self.step()
            raise self.diagnostic("no progress within the round budget")
        except _Finished as fin:
            return fin.outcome

    def step(self) -> None:
        c = self.col
        a, b, t = self.a, self.b, self.t
        gamma_set = self._gamma_set()
        if len(gamma_set) < 3:
            self.try_completion_escape()
            raise self.diagnostic("root/far-end overlap dropped below 3")

        A = sorted(gamma_set & c.missing(a))
        B = sorted(gamma_set & c.missing(b))

        # make the overlap straddle both root vertices
        if not A:
            beta = min(gamma_set)           # all of the overlap sits at b
            lam = min(c.missing(a))
            self.require_root_linked(lam, beta)
            self.swap_at(a, lam, beta)      # the a..b chain: beta moves to a
            return
        if not B:
            alpha = min(gamma_set)          # all of the overlap sits at a
            lam = min(c.missing(b))
            self.require_root_linked(alpha, lam)
            self.swap_at(b, lam, alpha)     # beta-role color moves to b
            return

        cbu, cus, cst = self._edge_colors()
        if cbu is None or cus is None or cst is None:
            raise self.diagnostic("path edge lost its color")

        # stage: put a root/far-end overlap color of a on bu
        if not (c.is_missing(a, cbu) and c.is_missing(t, cbu)):
            if not c.is_missing(a, cbu):
                self.try_completion_escape()
                raise self.diagnostic(
                    f"color of bu ({cbu}) is not missing at a"
                )
            self._retarget_bu(A, cbu)
            return

        alpha = cbu
        # stage: drive the color of us into missing(b) & missing(t)
        if c.is_missing(b, cus):
            if not c.is_missing(t, cus):
                self._import_to_far_end(cus, avoid=(self.u, self.s))
                return
            # (i) and (ii) hold; (iii) failing here is the dead branch
            if not c.is_missing(a, cst):
                self.try_completion_escape()
                raise self.diagnostic(
                    "front pattern complete but the last edge color is "
                    "missing at neither root vertex (excluded state)"
                )
            return  # goal; caught next round

        if not c.is_missing(a, cus):
            self.try_completion_escape()
            raise self.diagnostic(
                f"color of us ({cus}) is missing at neither root vertex"
            )

        delta = cus
        beta = B[0]

        # dispatch on where the color of st is missing
        if c.is_missing(b, cst):
            self._case_far_color_at_b(beta, delta, cst)
        elif c.is_missing(self.u, cst):
            self._case_far_color_at_u(beta, delta, cst)
        elif c.is_missing(a, cst):
            self._case_far_color_at_a(alpha, beta, delta, cst, A, B)
        else:
            self.try_completion_escape()
            raise self.diagnostic(
                f"color of st ({cst}) is missing at none of a, b, u"
            )

    # -- stage helpers -----------------------------------------------------

    def _retarget_bu(self, A: list[int], cbu: int) -> None:
        """Make the far end miss the color of bu by swapping one of its
        overlap colors against it, avoiding chains that run through bu."""
        c, t = self.col, self.t
        bu = edge_key(self.b, self.u)
        for alpha in A:
            if alpha == cbu:
                continue
            chain = c.chain_through(t, alpha, cbu)
            if not chain.has_edge(bu):
                self.swap_at(t, alpha, cbu)
                return
        self.try_completion_escape()
        raise self.diagnostic(
            "every overlap color's chain at the far end runs through bu"
        )

    def _import_to_far_end(self, color: int, avoid: tuple[int, int]) -> None:
        """Make the far end miss `color` by a swap at t that keeps the
        avoided edge untouched."""
        c, t = self.col, self.t
        av = edge_key(*avoid)
        for x in sorted(self._gamma_set()):
            if x == color or not c.is_missing(t, x):
                continue
            chain = c.chain_through(t, x, color)
            if not chain.has_edge(av):
                self.swap_at(t, x, color)
                return
        self.try_completion_escape()
        raise self.diagnostic(
            f"cannot import color {color} at the far end without touching "
            f"the edge {av}"
        )

    def _case_far_color_at_b(self, beta: int, delta: int, gamma: int) -> None:
        """st's color is missing at b."""
        c = self.col
        a, b, u, t = self.a, self.b, self.u, self.t
        self.require_root_linked(delta, beta)
        if u in c.chain_through(a, beta, delta).vertices:
            # the (beta, delta) chain between the roots runs through u; the
            # far-end swap is then disjoint from it
            if not c.is_missing(t, delta):
                self.swap_at(t, beta, delta)
            self.require_root_linked(delta, gamma)
            self.swap_at(a, delta, gamma)
            return
        if c.is_missing(t, delta):
            self.swap_at(a, delta, beta)
            self.require_root_linked(beta, gamma)
            self.swap_at(a, beta, gamma)
            return
        # import delta at the far end first, then retry this case
        self._import_to_far_end(delta, avoid=(u, self.s))

    def _case_far_color_at_u(self, beta: int, delta: int, gamma: int) -> None:
        """st's color is missing at u."""
        c = self.col
        a, b, u, t = self.a, self.b, self.u, self.t
        self.require_linked(b, u, beta, gamma, "center-leaf chain")
        if c.is_missing(t, delta):
            self.swap_at(t, beta, gamma)   # st picks up beta
            self.require_root_linked(delta, beta)
            self.swap_at(a, beta, delta)
            return
        self.require_linked(a, u, delta, gamma, "distinct-inducer chain")
        self.swap_at(t, beta, gamma)
        self.swap_at(t, gamma, delta)
        self.require_root_linked(delta, beta)
        self.swap_at(a, beta, delta)

    def _case_far_color_at_a(
        self,
        alpha: int,
        beta: int,
        delta: int,
        gamma: int,
        A: list[int],
        B: list[int],
    ) -> None:
        """st's color is missing at a (the pattern's last clause already
        holds; rearrange so the middle edge color reaches b and t)."""
        c = self.col
        a, b, u, s, t = self.a, self.b, self.u, self.s, self.t
        us = edge_key(u, s)

        if c.is_missing(t, delta):
            # swap the far end against the last edge, turning this into the
            # missing-at-b case next round
            self.require_root_linked(gamma, beta)
            self.swap_at(t, beta, gamma)
            return

        taus_b = [x for x in B if x != beta]
        taus_a = [x for x in A if x not in (alpha, delta)]

        for tau in taus_b:
            chain = c.chain_through(t, tau, delta)
            if not chain.has_edge(us):
                self.swap_at(t, tau, delta)
                return
        if taus_b:
            tau = taus_b[0]
            self.require_root_linked(delta, tau)
            self.swap_at(a, delta, tau)  # delta moves to b; re-dispatch
            return

        if not taus_a:
            self.try_completion_escape()
            raise self.diagnostic("no spare overlap color in the last case")
        tau = taus_a[0]

        self.require_root_linked(delta, beta)
        if u in c.chain_through(a, beta, delta).vertices:
            self.swap_at(t, beta, delta)
            self.swap_at(t, tau, beta)
            self.require_root_linked(gamma, beta)
            self.swap_at(a, beta, gamma)
            self.require_root_linked(delta, gamma)
            self.swap_at(a, gamma, delta)
            return

        self.swap_at(a, delta, beta)
        self.require_root_linked(alpha, delta)
        self.swap_at(t, alpha, delta)
        self.require_root_linked(gamma, delta)
        self.swap_at(a, gamma, delta)
        self.require_root_linked(beta, gamma)
        self.swap_at(t, beta, gamma)
        self.swap_at(t, gamma, alpha)
        self.require_root_linked(tau, gamma)
        self.swap_at(t, tau, gamma)
        self.require_root_linked(beta, gamma)
        self.swap_at(a, beta, gamma)
        self.require_root_linked(delta, beta)
        self.swap_at(a, delta, beta)


def normalize_k5(
    col: PartialEdgeColoring, path: KiersteadPath
) -> NormalizationOutcome:
    """Rewrite a coloring along a 5-vertex Kierstead path into the canonical
    pattern, or complete the coloring when the host lets a chain fact fail.

    Every intermediate coloring is proper; the number of Kempe changes is
    bounded by MAX_SWAPS. Raises HypothesisError when the far-end overlap
    is below 3, and NormalizeDiagnosticError (with the trace) if the state
    escapes every handled case.
    """
    return _Normalizer(col, path).run()


def replay_proof_script(
    col: PartialEdgeColoring, script: SwapScript, expect: str
) -> VerificationReport:
    """Run a swap script against a coloring and check the expectation:
    'proper-full' demands a validating full coloring, 'proper-partial' a
    validating coloring with the uncolored set intact."""
    check = "script-replay"
    if expect not in ("proper-full", "proper-partial"):
        raise ValueError("expect must be 'proper-full' or 'proper-partial'")
    try:
        result, trace = apply_script(col, script)
    except ScriptError as exc:
        return failing(check, col, step=exc.step_index, reason=exc.reason)
    ok = result.validate() and (expect == "proper-partial" or result.is_full())
    if ok:
        return passing(check, steps=len(script), expect=expect)
    return failing(check, result, reason=f"expectation {expect} not met", trace=trace)
