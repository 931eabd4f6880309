"""The benchmark's workloads: inputs from a seed, one library call per op,
and a check of every output against a stored reference.

There are four parts, each reaching code of ``decoybb84`` that no other
part reaches; the benchmark runs them as two mixes (``Mix``) of two parts,
so an optimisation of any module is exercised by one workload and bypassed
by the other:

* ``session-desk``    protocol, channel, the EC decode (``kernels.nearest_index``)
* ``decoding-grid``   ``bounds.verify_proposition_decoding`` and its many tiny
                      gf2 / hashing calls (``kernels.restricted_decode_flags``)
* ``code-reduction``  oracle and ``kernels.decode_table``
* ``toeplitz-verify`` cli, reports and the universality profile
                      (``kernels.toeplitz_image_counts``)

Each part has a fixed list of distinct inputs; the runner issues them
in cycles, each cycle in a seed-dependent order, and a workload that hands
the library a generator seeds it from (seed, input).  Inputs are made only
by code in this file; the library receives them and nothing else.  An
op's output is compared with the reference stored in ``refs/<name>.json``
(written by ``make_refs.py`` from the commit that defined the benchmark); a
mismatch, or any exception such as ``CapacityError``, fails the op.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np

from decoybb84 import bounds, cli, oracle, protocol
from decoybb84.channel import ChannelStrategy
from decoybb84.decoy import SourceDistribution
from decoybb84.gf2 import BitMatrix

REFS_DIR = Path(__file__).resolve().parent / "refs"


class Op:
    """One unit of work: the reference key, a label and the call's inputs."""

    __slots__ = ("key", "label", "inputs")

    def __init__(self, key, label: str, inputs):
        self.key = key
        self.label = label
        self.inputs = inputs


def _gf2_rank(rows) -> int:
    """Rank of packed GF(2) rows; the benchmark's own, so inputs do not
    depend on the library's elimination code."""
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)


def _random_rows(rng: np.random.Generator, rows: int, cols: int, rank: int) -> tuple[int, ...]:
    while True:
        bits = rng.integers(0, 2, size=(rows, cols))
        packed = tuple(int(sum(int(b) << j for j, b in enumerate(row))) for row in bits)
        if _gf2_rank(packed) == rank:
            return packed


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    trace_ops = 0     # inputs in one traced pass (fixed, so counts repeat)

    def __init__(self, refs=None):
        self._refs = refs

    @property
    def refs(self):
        """The stored references, read on first use."""
        if self._refs is None:
            with open(REFS_DIR / f"{self.name}.json") as fh:
                self._refs = json.load(fh)
        return self._refs

    @refs.setter
    def refs(self, value):
        self._refs = value

    def inputs(self, seed: int) -> list[Op]:
        """The distinct inputs of one cycle."""
        raise NotImplementedError

    def smallest(self) -> Op:
        """The cheapest op, used to time set-up in a fresh interpreter."""
        raise NotImplementedError

    def prepare(self, op: Op):
        """Arguments for one call, made outside the timed region."""
        return op.inputs

    def call(self, args):
        """The timed library call."""
        raise NotImplementedError

    def record(self, op: Op, out):
        """The reference record for an output (what ``make_refs`` stores)."""
        raise NotImplementedError

    def reference(self, op: Op):
        return self.refs["records"][op.key]

    def mismatch(self, op: Op, out) -> str | None:
        """None when ``out`` matches the stored reference, else a reason."""
        got, want = self.record(op, out), self.reference(op)
        if got != want:
            return f"{op.label}: got {got!r}, reference {want!r}"
        return None

    def trace_list(self, seed: int, limit: int | None = None) -> list[Op]:
        """The inputs of one traced pass; ``limit`` shortens it."""
        return self.inputs(seed)[:limit or self.trace_ops]

    def close(self) -> None:
        """Remove what the ops left behind."""


# ----------------------------------------------------------------------


STRATEGY = ChannelStrategy(
    p_dark=0.001, q_vacuum=0.001, q_single=0.6,
    q_multi_times=0.7, q_multi_plus=0.7,
    single_error_times=(0.9, 0.03, 0.04, 0.03),
    single_error_plus=(0.9, 0.03, 0.04, 0.03),
    multi_flip_times=0.05, multi_flip_plus=0.05)


def _key_text(key) -> str | None:
    return None if key is None else f"{key.length}:{key.bits:x}"


class SessionDesk(Workload):
    """One ``protocol.run_session`` at the desk config per op.

    Most EC decodes fall back to exhaustive enumeration at lm 12..18, so
    the session time is dominated by codeword enumeration and
    ``kernels.nearest_index``.  The inputs are rng_seed 0..POOL-1.
    """

    name = "session-desk"
    POOL = 128
    trace_ops = 32

    @staticmethod
    def config(rng_seed: int) -> protocol.SessionConfig:
        return protocol.SessionConfig(
            n=24, n_bar=24, n_under=2, n_prime=4000,
            nus=(SourceDistribution(0.0, 1.0, 0.0),), i0=1,
            p_bar=(0.1, 0.45, 0.45), rng_seed=rng_seed)

    def _op(self, k):
        return Op(k, f"session rng_seed={k}", self.config(k))

    def inputs(self, seed):
        return [self._op(k) for k in range(self.POOL)]

    def smallest(self):
        return self._op(0)

    def call(self, args):
        return protocol.run_session(args, STRATEGY)

    def record(self, op, out):
        def basis(res):
            if res is None:
                return None
            return [res.lm, res.m, res.length, res.ec_success,
                    _key_text(res.alice_key), _key_text(res.bob_key)]
        return [out.status, out.abort_step, basis(out.plus), basis(out.times)]


# ----------------------------------------------------------------------


def decoding_grid() -> list[tuple[int, int, int, int, int, int]]:
    """The acceptance criterion-3 grid: (n0, n1, n2, t, c1_dim, m), 2032 configs."""
    out = []
    for n0 in (0, 1, 2):
        for n1 in (2, 3, 4, 5, 6, 8):
            for n2 in (0, 1, 2):
                n = n0 + n1 + n2
                if n > 10:
                    continue
                for t in range(0, min(n1, 4) + 1):
                    for m in (2, 3, 4, 5):
                        for c1_dim in sorted({min(n, m + 1), min(n, m + 2), min(n, m + 3)}):
                            if c1_dim > m:
                                out.append((n0, n1, n2, t, c1_dim, m))
    return out


class DecodingGrid(Workload):
    """One ``bounds.verify_proposition_decoding`` config per op.

    Thousands of small ops, each made of many tiny gf2 and hashing calls.
    The inputs are every second config of the grid (1016), so a run repeats
    each several times; an input's generator is seeded from (seed, config).
    Only tie-break-independent outputs are checked: bound, seed count,
    pattern count, no BoundViolation and empirical_max <= bound.
    """

    name = "decoding-grid"
    STRIDE = 4
    trace_ops = 127   # a quarter of the inputs

    def __init__(self, refs=None):
        super().__init__(refs)
        self.grid = decoding_grid()

    def _op(self, idx, seed):
        cfg = self.grid[idx]
        return Op(idx, "grid " + ",".join(map(str, cfg)), (cfg, [seed, idx]))

    def inputs(self, seed):
        return [self._op(idx, seed) for idx in range(0, len(self.grid), self.STRIDE)]

    def smallest(self):
        idx = min(range(0, len(self.grid), self.STRIDE),
                  key=lambda j: (sum(self.grid[j][:3]), self.grid[j]))
        return self._op(idx, 0)

    def prepare(self, op):
        cfg, rng_seed = op.inputs
        return cfg, np.random.default_rng(rng_seed)

    def call(self, args):
        cfg, rng = args
        return bounds.verify_proposition_decoding(*cfg, rng=rng)

    def record(self, op, out):
        return list(self.grid[op.key]) + [out.bound, out.n_seeds, out.n_patterns]

    def reference(self, op):
        return self.refs["records"][str(op.key)]

    def mismatch(self, op, out):
        got, want = self.record(op, out), self.reference(op)
        if got[:6] + got[7:] != want[:6] + want[7:] \
                or not math.isclose(got[6], want[6], rel_tol=1e-12, abs_tol=0.0):
            return f"{op.label}: got {got!r}, reference {want!r}"
        if not out.empirical_max <= out.bound + 1e-12:
            return f"{op.label}: empirical_max {out.empirical_max} > bound {out.bound}"
        return None


# ----------------------------------------------------------------------


class CodeReduction(Workload):
    """``oracle.reduce_code_channel`` then ``oracle.pairwise_figures``.

    A pool of random code pairs (injective M_e, full-row-rank M_p) with N
    in 9..12.  Even pool entries pass a per-site product law, odd ones an
    explicit joint law, so consecutive ops alternate between the two
    channel forms.  The inputs are the POOL entries.
    """

    name = "code-reduction"
    POOL = 50
    # N of pool entries 2k and 2k+1: 20 % N=9, 20 % N=10, 30 % N=11, 30 % N=12.
    N_MIX = (9, 10, 11, 12, 9, 10, 11, 12, 11, 12)
    JOINT_TERMS = 64
    TOL = 1e-12
    trace_ops = 30

    @classmethod
    def instance(cls, j: int):
        """Pool entry j: (N, M_e, M_p, channel), independent of the run seed."""
        rng = np.random.default_rng([0xC0DE, j])
        n = cls.N_MIX[(j // 2) % len(cls.N_MIX)]
        lm = int(rng.integers(5, 8))
        l = int(rng.integers(1, 4))
        m_e = BitMatrix.from_row_ints(n, lm, _random_rows(rng, n, lm, lm))
        m_p = BitMatrix.from_row_ints(l, lm, _random_rows(rng, l, lm, l))
        if j % 2 == 0:
            qx = rng.uniform(0.01, 0.15, size=n)
            qz = rng.uniform(0.01, 0.15, size=n)
            channel = [{(0, 0): (1 - a) * (1 - b), (0, 1): (1 - a) * b,
                        (1, 0): a * (1 - b), (1, 1): a * b}
                       for a, b in zip(qx.tolist(), qz.tolist())]
        else:
            patterns = rng.integers(0, 1 << n, size=(cls.JOINT_TERMS, 2)).tolist()
            weights = rng.dirichlet(np.ones(cls.JOINT_TERMS)).tolist()
            channel = {}
            for (ex, ez), w in zip(patterns, weights):
                channel[(ex, ez)] = channel.get((ex, ez), 0.0) + w
        return n, m_e, m_p, channel

    def _op(self, j):
        n, m_e, m_p, channel = self.instance(j)
        form = "product" if j % 2 == 0 else "joint"
        return Op(j, f"reduce j={j} N={n} lm={m_e.cols} l={m_p.rows} {form}",
                  (channel, m_e, m_p))

    def inputs(self, seed):
        return [self._op(j) for j in range(self.POOL)]

    def smallest(self):
        return self._op(0)

    def call(self, args):
        law, p_ph = oracle.reduce_code_channel(*args)
        return law, p_ph, oracle.pairwise_figures(law)

    def record(self, op, out):
        law, p_ph, _ = out
        return [p_ph, law.probs.ravel().tolist()]

    def mismatch(self, op, out):
        (p_ph, probs), (want_p, want_probs) = self.record(op, out), self.reference(op)
        if len(probs) != len(want_probs):
            return f"{op.label}: law has {len(probs)} entries, reference {len(want_probs)}"
        err = max([abs(p_ph - want_p)] + [abs(a - b) for a, b in zip(probs, want_probs)])
        if not err <= self.TOL:
            return f"{op.label}: differs from reference by {err:.3g} > {self.TOL}"
        return None


# ----------------------------------------------------------------------


class ToeplitzVerify(Workload):
    """In-process ``cli.main(... verify-toeplitz --l L --m M)`` per op.

    The cycle of (l, m) pairs covers l+m = 12..16.  Its multiplicities put
    the latency median inside the l+m = 13 group and the 90th percentile
    inside the l+m = 15 group, so neither percentile sits on the step
    between two sizes.  The op must exit 0 and the report's payload (exact ``Fraction``s included)
    must hash to the stored digest.
    """

    name = "toeplitz-verify"
    CYCLE = ((6, 6),) * 3 + ((5, 7),) * 2 + ((4, 8),) * 2 \
        + ((7, 6),) * 6 + ((7, 7), (6, 8)) + ((8, 7),) * 2 + ((7, 8), (6, 9)) + ((8, 8),)
    trace_ops = len(CYCLE)

    def __init__(self, refs=None, out_path: Path | None = None):
        super().__init__(refs)
        self.out_path = out_path or Path(__file__).resolve().parent.parent / \
            ".bench_out" / f"toeplitz-{os.getpid()}.json"

    def _op(self, lm):
        l, m = lm
        return Op(f"{l},{m}", f"verify-toeplitz l={l} m={m}", lm)

    def inputs(self, seed):
        return [self._op(lm) for lm in self.CYCLE]

    def smallest(self):
        return self._op((5, 7))

    def call(self, args):
        l, m = args
        self.out_path.parent.mkdir(parents=True, exist_ok=True)
        return cli.main(["--format", "json", "--out", str(self.out_path),
                         "verify-toeplitz", "--l", str(l), "--m", str(m)])

    def record(self, op, out):
        with open(self.out_path) as fh:
            payload = json.load(fh)["payload"]
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return [out, hashlib.sha256(blob.encode()).hexdigest()]

    def reference(self, op):
        return [0, self.refs["digests"][op.key]]

    def close(self):
        self.out_path.unlink(missing_ok=True)


class Mix(Workload):
    """The inputs of several workloads in one cycle, each op run and checked
    by the workload it comes from.

    The benchmark runs mixes: two workloads of two parts each give every
    run twice the measuring time of four, within the same time budget, and
    a longer run is less often slowed from start to end by other processes.
    The first part supplies the set-up op.
    """

    parts: tuple = ()

    def __init__(self):
        self.members = [cls() for cls in self.parts]

    def _wrap(self, member, ops):
        return [Op((member.name, op.key), f"{member.name}: {op.label}", (member, op))
                for op in ops]

    def inputs(self, seed):
        return [op for m in self.members for op in self._wrap(m, m.inputs(seed))]

    def trace_list(self, seed, limit=None):
        return [op for m in self.members for op in self._wrap(m, m.trace_list(seed, limit))]

    def smallest(self):
        member = self.members[0]
        return self._wrap(member, [member.smallest()])[0]

    def prepare(self, op):
        member, inner = op.inputs
        return member, member.prepare(inner)

    def call(self, args):
        member, inner_args = args
        return member.call(inner_args)

    def mismatch(self, op, out):
        member, inner = op.inputs
        return member.mismatch(inner, out)

    def close(self):
        for m in self.members:
            m.close()


class SessionReduce(Mix):
    """Protocol sessions and code-channel reductions: protocol, channel,
    oracle, kernels.nearest_index and kernels.decode_table."""

    name = "session-reduce"
    parts = (CodeReduction, SessionDesk)


class GridToeplitz(Mix):
    """The decoding-proposition grid and verify-toeplitz through the CLI:
    bounds, cli, reports, hashing, restricted_decode_flags and
    toeplitz_image_counts."""

    name = "grid-toeplitz"
    parts = (DecodingGrid, ToeplitzVerify)


PARTS = {w.name: w for w in (SessionDesk, DecodingGrid, CodeReduction, ToeplitzVerify)}
WORKLOADS = dict(PARTS, **{w.name: w for w in (SessionReduce, GridToeplitz)})


def timed_op(workload: Workload, op: Op) -> tuple[float, str | None]:
    """Run one op: (seconds in the library call, failure reason or None).

    Only the call is timed; the check against the reference is not.
    """
    args = workload.prepare(op)
    start = time.perf_counter()
    try:
        out = workload.call(args)
    except Exception as exc:  # noqa: BLE001 - any raise fails the op, CapacityError included
        return time.perf_counter() - start, f"{op.label}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, workload.mismatch(op, out)
