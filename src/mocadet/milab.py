"""Executable verification of the contrastive mutual-information lower bound.

The claim under test: with a positive pair (U, V) and K negatives drawn
i.i.d. from the marginal of V, the contrastive loss L satisfies

    I(U; V) >= ln(1 + K) - L.

On finite discrete joints everything on both sides is exactly computable:
I(U; V) by summation, and L either by Monte Carlo (with a standard error)
or by enumerating all candidate tuples. Two critics are exercised: the
log-density-ratio critic s(u,v) = ln p(v|u)/p(v) (optimal: its softmax
equals the true posterior over the positive slot) and a cosine critic over
random symbol embeddings (suboptimal). Temperature is folded into the
critic: the cosine critic divides its similarities by its own tau.
The loss is ``queryrepa.infonce_rows``, the InfoNCE that QueryREPA trains.
``verify_bound`` returns the document that ``mi-lab --report`` writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .queryrepa import infonce_rows

_ENUM_LIMIT = 2_000_000  # max enumerated tuples in exact modes
_SE_SLACK = 5.0  # a Monte-Carlo bound may exceed the MI by this many standard errors
_EXACT_TOLERANCE = 1e-9  # an enumerated bound may exceed the MI by this much


@dataclass
class DiscreteJoint:
    """Probability table p(u, v) over finite alphabets, marginals cached."""

    table: np.ndarray
    pu: np.ndarray = field(init=False)
    pv: np.ndarray = field(init=False)

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        if t.ndim != 2 or t.size == 0:
            raise ValidationError("joint table must be a non-empty matrix")
        if np.any(t < 0) or not np.all(np.isfinite(t)):
            raise ValidationError("joint entries must be finite and non-negative")
        if abs(t.sum() - 1.0) > 1e-12:
            raise ValidationError(f"joint must sum to 1, got {t.sum()!r}")
        self.table = t
        self.pu = t.sum(axis=1)
        self.pv = t.sum(axis=0)

    @property
    def shape(self):
        return self.table.shape


def exact_mi(joint: DiscreteJoint) -> float:
    """I(U;V) in nats by direct summation, with 0 ln 0 := 0."""
    t = joint.table
    outer = joint.pu[:, None] * joint.pv[None, :]
    mask = t > 0
    return float(np.sum(t[mask] * np.log(t[mask] / outer[mask])))


# -- joint constructors -------------------------------------------------------


def identity_joint(n: int) -> DiscreteJoint:
    return DiscreteJoint(np.eye(n) / n)


def product_joint(pu, pv) -> DiscreteJoint:
    pu = np.asarray(pu, dtype=np.float64)
    pv = np.asarray(pv, dtype=np.float64)
    return DiscreteJoint(np.outer(pu / pu.sum(), pv / pv.sum()))


def random_joint(n_u: int, n_v: int, rng: np.random.Generator) -> DiscreteJoint:
    t = rng.gamma(0.7, size=(n_u, n_v))
    return DiscreteJoint(t / t.sum())


def correlated_joint(n: int, coupling: float, rng: np.random.Generator) -> DiscreteJoint:
    """Mixture of an identity coupling and a random product joint."""
    base = random_joint(n, n, rng)
    prod = np.outer(base.pu, base.pv)
    t = coupling * np.eye(n) / n + (1.0 - coupling) * prod / prod.sum()
    return DiscreteJoint(t / t.sum())


def seeded_joint_suite(n_joints: int, seed: int = 0) -> list:
    """Deterministic mix of couplings and sizes for the certification run."""
    joints = []
    for i in range(n_joints):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        kind = i % 4
        n = int(rng.integers(2, 9))
        if kind == 0:
            joints.append(identity_joint(n))
        elif kind == 1:
            joints.append(product_joint(rng.uniform(0.2, 1, n), rng.uniform(0.2, 1, n)))
        elif kind == 2:
            joints.append(correlated_joint(n, float(rng.uniform(0.3, 0.95)), rng))
        else:
            joints.append(random_joint(n, int(rng.integers(2, 9)), rng))
    return joints


# -- critics -------------------------------------------------------------------


@dataclass(frozen=True)
class Critic:
    kind: str  # "optimal" (log density ratio) | "cosine" (embedding similarity)
    scores: np.ndarray  # s(u, v), float64; -inf allowed off the support


def optimal_critic(joint: DiscreteJoint) -> Critic:
    """s(u, v) = ln[p(v|u) / p(v)]; -inf where p(u, v) = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = joint.table / joint.pu[:, None]
        ratio = cond / joint.pv[None, :]
        scores = np.where(joint.table > 0, np.log(np.where(ratio > 0, ratio, 1.0)), -np.inf)
    return Critic(kind="optimal", scores=scores)


def cosine_critic(n_u: int, n_v: int, dim: int, tau: float,
                  rng: np.random.Generator) -> Critic:
    """Cosine similarity of random unit symbol embeddings, scaled by 1/tau > 0."""
    eu = rng.normal(size=(n_u, dim))
    ev = rng.normal(size=(n_v, dim))
    eu /= np.linalg.norm(eu, axis=1, keepdims=True)
    ev /= np.linalg.norm(ev, axis=1, keepdims=True)
    return Critic(kind="cosine", scores=(eu @ ev.T) / tau)


# -- sampling and estimation ---------------------------------------------------


def sample_candidates(joint: DiscreteJoint, K: int, rng: np.random.Generator, n: int):
    """Draw ``n`` triples (u, candidate set, positive slot J).

    The pair (u, v) comes from the joint, the K negatives i.i.d. from the
    marginal p(v) independently of u, and J ~ Uniform{0..K} places the
    positive. Returns (u[n], candidates[n, K+1], J[n]); K >= 1.
    """
    nu, nv = joint.shape
    flat = rng.choice(nu * nv, size=n, p=joint.table.reshape(-1))
    u, v = np.divmod(flat, nv)
    negs = rng.choice(nv, size=(n, K), p=joint.pv)
    j = rng.integers(0, K + 1, size=n)
    cands = np.empty((n, K + 1), dtype=np.int64)
    rows = np.arange(n)
    # negative k sits in slot k before the positive's slot j, in slot k + 1 after it
    cands[rows[:, None], np.arange(K) + (np.arange(K) >= j[:, None])] = negs
    cands[rows, j] = v
    return u, cands, j


@dataclass
class NCEEstimate:
    K: int
    n_samples: int
    loss: float
    bound: float  # ln(1 + K) - loss
    stderr: float


def _losses_from_draws(critic: Critic, u, cands, j) -> np.ndarray:
    scores = critic.scores[u[:, None], cands]
    return infonce_rows(scores)[0] - scores[np.arange(len(j)), j]


def infonce_estimate(joint: DiscreteJoint, critic: Critic, K: int, n_samples: int,
                     rng: np.random.Generator) -> NCEEstimate:
    """Monte-Carlo contrastive loss and the implied lower bound on I(U;V)."""
    u, cands, j = sample_candidates(joint, K, rng, n_samples)
    losses = _losses_from_draws(critic, u, cands, j)
    loss = float(losses.mean())
    se = float(losses.std(ddof=1) / math.sqrt(n_samples))
    return NCEEstimate(K=K, n_samples=n_samples, loss=loss,
                       bound=math.log(1 + K) - loss, stderr=se)


def _all_tuples(n_v: int, length: int) -> np.ndarray:
    """Every tuple over range(n_v) of the given length, one per row, the last
    position varying fastest."""
    return np.indices((n_v,) * length).reshape(length, -1).T


def exact_infonce(joint: DiscreteJoint, critic: Critic, K: int) -> float:
    """Exact expected contrastive loss: the loss of every (u, v, negative
    tuple), the positive in slot 0, weighted by its probability; K >= 1."""
    nv = joint.shape[1]
    negs = _all_tuples(nv, K)
    p_negs = joint.pv[negs].prod(axis=1)
    total = 0.0
    for u, v in zip(*np.nonzero(joint.table)):
        cands = np.column_stack([np.full(len(negs), v), negs])
        losses = _losses_from_draws(critic, np.full(len(negs), u), cands,
                                    np.zeros(len(negs), dtype=np.int64))
        total += float(joint.table[u, v] * p_negs @ losses)
    return total


def posterior_identity_gap(joint: DiscreteJoint, critic: Critic, K: int) -> float:
    """Max |true slot posterior - critic softmax| over all reachable tuples.

    The posterior of slot j given (u, candidates) is proportional to
    p(u, v_j) / (p(u) p(v_j)); the softmax of slot j is exp(-loss) with the
    positive in slot j. Zero (to rounding) iff the critic is the
    log-density-ratio critic.
    """
    nv = joint.shape[1]
    tuples = _all_tuples(nv, K + 1)
    tuples = tuples[(joint.pv[tuples] > 0).all(axis=1)]
    slots = np.arange(K + 1)
    worst = 0.0
    for u in np.nonzero(joint.pu)[0]:
        cands = tuples[(joint.table[u, tuples] > 0).any(axis=1)]  # reachable
        r = joint.table[u, cands] / (joint.pu[u] * joint.pv[cands])
        post = r / r.sum(axis=1, keepdims=True)
        losses = _losses_from_draws(critic, np.full(cands.size, u),
                                    np.repeat(cands, K + 1, axis=0),
                                    np.tile(slots, len(cands)))
        q = np.exp(-losses).reshape(cands.shape)
        worst = max(worst, float(np.abs(post - q).max()))
    return worst


# -- certification -------------------------------------------------------------


def verify_bound(joints, Ks=(1, 3, 7, 15), n_samples: int = 20_000,
                 seed: int = 0) -> dict:
    """Certify the lower bound on a suite of joints; returns the report.

    For every (joint, critic in {optimal, cosine}, K): assert
    ln(1+K) - L_hat <= I + _SE_SLACK * SE. Where enumeration is affordable
    (support <= 6, K <= 3) the same inequality is asserted exactly, within
    ``_EXACT_TOLERANCE``; the slot-posterior identity is checked for the
    optimal critic; and the optimal-critic bound must be non-decreasing in
    K within 2 combined SEs (exactly, in enumeration mode).
    The report has one dict row per Monte-Carlo cell (``joint``, ``critic``,
    ``K``, ``mi``, ``loss``, ``bound``, ``stderr``, ``violated``), and one
    with critic ``<kind>-exact`` and stderr 0 per violated exact cell.
    """
    cells = []
    identity_gaps = []
    mono_failures = []
    exact_checked = 0
    joints = list(joints)
    for ji, joint in enumerate(joints):
        mi = exact_mi(joint)
        nu, nv = joint.shape
        critics = [optimal_critic(joint),
                   cosine_critic(nu, nv, dim=8, tau=0.5,
                                 rng=np.random.default_rng(np.random.SeedSequence([seed, ji, 101])))]
        for ci, critic in enumerate(critics):
            bounds = []
            for K in Ks:
                rng = np.random.default_rng(np.random.SeedSequence([seed, ji, ci, K]))
                est = infonce_estimate(joint, critic, K, n_samples, rng)
                cell = {"joint": ji, "critic": critic.kind, "K": K, "mi": mi}
                # 1e-12 absorbs float rounding when MI and SE are both ~0
                cells.append({**cell, "loss": est.loss, "bound": est.bound, "stderr": est.stderr,
                              "violated": est.bound > mi + _SE_SLACK * est.stderr + 1e-12})
                bounds.append(est)
                if nv <= 6 and K <= 3:
                    exact_loss = exact_infonce(joint, critic, K)
                    exact_bound = math.log(1 + K) - exact_loss
                    exact_checked += 1
                    if exact_bound > mi + _EXACT_TOLERANCE:
                        cells.append({**cell, "critic": critic.kind + "-exact",
                                      "loss": exact_loss, "bound": exact_bound,
                                      "stderr": 0.0, "violated": True})
            if critic.kind == "optimal":
                if nv ** 2 <= _ENUM_LIMIT:
                    identity_gaps.append(posterior_identity_gap(joint, critic, 1))
                for a, b in zip(bounds[:-1], bounds[1:]):
                    slack = 2.0 * math.sqrt(a.stderr ** 2 + b.stderr ** 2) + 1e-12
                    if b.bound < a.bound - slack:
                        mono_failures.append((ji, a.K, b.K, a.bound, b.bound))

    n_violations = sum(c["violated"] for c in cells)
    gap = max(identity_gaps, default=0.0)
    return {
        "n_joints": len(joints),
        "Ks": list(Ks),
        "n_samples": n_samples,
        "passed": not n_violations and not mono_failures and gap < 1e-10,
        "n_cells": len(cells),
        "n_exact_cells": exact_checked,
        "n_violations": n_violations,
        "posterior_gap_max": gap,
        "monotonicity_failures": mono_failures,
        "cells": cells,
    }
