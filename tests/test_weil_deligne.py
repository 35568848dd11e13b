"""Weil-Deligne layer: filtration, weights, purity, families."""

import json
import random
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from phinabla import linalg, oracles
from phinabla.errors import NonInvertible, NotNilpotent, NotWeil
from phinabla.weil_deligne import (FrobeniusKind, MonodromyFiltration,
                                   WeilDeligneRep, _add_traces, _graded,
                                   _graded_phi, _jordan_chains, _weights_of,
                                   compatibility_family,
                                   monodromy_filtration, purity_check,
                                   quasi_purity_check, special_rep,
                                   trace_table, twist, weight_of_eigenvalue)

from helpers import (count_calls, fraction_completion,
                     fraction_rational_roots, fraction_root_weights,
                     fraction_rref, fraction_solve, kron, random_nilpotent,
                     same_space)


F = Fraction


# -- monodromy filtration ---------------------------------------------------

def test_zero_operator_trivial_filtration():
    fil = monodromy_filtration([[F(0)]])
    assert fil.s == 0
    assert fil.rank(0) == 1
    assert fil.rank(-1) == 0


def test_e12_filtration_matches_hand_computation():
    fil = monodromy_filtration([[F(0), F(1)], [F(0), F(0)]])
    assert fil.s == 1
    assert fil.basis(-1) == [[F(1), F(0)]]
    assert fil.basis(0) == [[F(1), F(0)]]
    assert fil.rank(1) == 2


def test_non_nilpotent_rejected():
    with pytest.raises(NotNilpotent):
        monodromy_filtration([[F(1)]])


@pytest.mark.parametrize("N", [
    [[F(2), F(1)], [F(1), F(1)]],
    [[F(0), F(0)], [F(0), F(1)]],
    # J3 beside 1/2: the runs of e1, e2, e3 end, that of e4 never does
    [[F(0), F(1), F(0), F(0)], [F(0), F(0), F(1), F(0)],
     [F(0), F(0), F(0), F(0)], [F(0), F(0), F(0), F(1, 2)]],
], ids=["invertible", "diag(0,1)", "J3+corner"])
def test_stalled_kernel_chain_is_not_nilpotent(N, monkeypatch):
    # nilpotency is read from the runs e, Ne, ... of the standard basis:
    # one that passes d vectors is refused before any elimination
    def run():
        with pytest.raises(NotNilpotent,
                           match="^monodromy filtration needs a nilpotent "
                                 "input$"):
            monodromy_filtration(N)

    assert _eliminations(monkeypatch, run) == (0, 0)


def test_empty_operator_filtration():
    fil = monodromy_filtration([])
    assert (fil.s, fil.dim, fil.rank(0), fil.basis(0)) == (0, 0, 0, [])


@pytest.mark.parametrize("N", [
    [[0, 1, 0], [0, 0, 0]],
    [[0, 1], [0]],
    [[]],
], ids=["2x3", "ragged", "empty-row"])
def test_filtration_refuses_non_square(N):
    with pytest.raises(ValueError, match='^"N" must be a '):
        monodromy_filtration(N)


def test_filtration_conjugation_covariance():
    N = [[F(0), F(1), F(0)], [F(0), F(0), F(0)], [F(0), F(0), F(0)]]
    U = [[F(1), F(2), F(0)], [F(0), F(1), F(1)], [F(0), F(0), F(1)]]
    Ui = linalg.mat_inv(U)
    Nc = linalg.mat_mul(Ui, linalg.mat_mul(N, U))
    fil = monodromy_filtration(N)
    filc = monodromy_filtration(Nc)
    for k in range(-fil.s, fil.s + 1):
        moved = [linalg.mat_vec(Ui, v) for v in fil.basis(k)]
        assert same_space(moved, filc.basis(k))


def test_random_nilpotents_satisfy_axioms():
    from phinabla.oracles import verify_monodromy_axioms
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randint(1, 6)
        N = random_nilpotent(rng, d)
        fil = monodromy_filtration(N)
        ok, witness = verify_monodromy_axioms(
            N, {k: fil.basis(k) for k in range(-fil.s, fil.s + 1)})
        assert ok, witness

@st.composite
def rational_nilpotents(draw, max_dim=6):
    """Strictly upper triangular with rational entries, conjugated by a
    unipotent upper triangular matrix with rational entries."""
    d = draw(st.integers(1, max_dim))
    entries = st.one_of(st.just(F(0)), st.fractions(-3, 3,
                                                    max_denominator=7))
    N = [[draw(entries) if j > i else F(0) for j in range(d)]
         for i in range(d)]
    U = [[F(int(i == j)) if j <= i else draw(entries) for j in range(d)]
         for i in range(d)]
    return linalg.mat_mul(linalg.mat_inv(U), linalg.mat_mul(N, U))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rational_nilpotents(),
       st.fractions(-50, 50, max_denominator=50).filter(bool))
def test_filtration_of_a_multiple_is_the_same(N, c):
    # the filtration reads N as a primitive integer multiple: cN gives
    # the same bases, Fraction rows of the same reduced echelon forms
    fil = monodromy_filtration(N)
    scaled = monodromy_filtration(linalg.mat_scale(N, c))
    assert (scaled.s, scaled.dim, scaled.bases) == (fil.s, fil.dim,
                                                    fil.bases)
    assert all(type(x) is F for b in fil.bases.values() for v in b
               for x in v)
    ok, witness = oracles.verify_monodromy_axioms(
        N, {k: fil.basis(k) for k in range(-fil.s, fil.s + 1)})
    assert ok, witness


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rational_nilpotents(max_dim=10))
def test_filtration_bases_are_the_rref_of_each_flag_prefix(N):
    # the one flag pass gives at each level the reduced echelon form of
    # the chain vectors of index <= k, as the Fraction reference does
    fil = monodromy_filtration(N)
    s, flag = _jordan_chains(linalg._scaled(N)[0])
    assert (fil.s, sorted(fil.bases)) == (s, list(range(-s, s + 1)))
    prefix = []
    for k, vectors in enumerate(flag, start=-s):
        prefix += vectors
        R, pivots = fraction_rref(prefix)
        assert fil.bases[k] == R[:len(pivots)]
        assert linalg.span_basis(prefix) == R[:len(pivots)]


def _convolution_filtration(N):
    """The kernel/image convolution that monodromy_filtration replaced:
    M_k = sum over j of (ker N^(k+j+1) & im N^j), for k in [-d-1, d]."""
    d = len(N)
    powers = [linalg.identity(d)]
    for _ in range(d + 1):
        powers.append(linalg.mat_mul(N, powers[-1]))
    full = linalg.identity(d)

    def ker(m):
        if m <= 0:
            return []
        return full if m > d else linalg.span_basis(linalg.nullspace(powers[m]))

    def im(j):
        if j <= 0:
            return full
        return [] if j > d else linalg.column_space(powers[j])

    def intersect(B1, B2):
        if not B1 or not B2:
            return []
        stacked = [r1 + [-x for x in r2] for r1, r2 in
                   zip(linalg.transpose(B1), linalg.transpose(B2))]
        out = []
        for v in linalg.nullspace(stacked):
            x = [sum(a * B1[i][j] for i, a in enumerate(v[:len(B1)]))
                 for j in range(d)]
            if any(x):
                out.append(x)
        return linalg.span_basis(out)

    bases = {}
    for k in range(-d - 1, d + 1):
        acc = []
        for j in range(max(0, -k), d + 1):
            acc = linalg.span_basis(acc + intersect(ker(k + j + 1), im(j)))
        bases[k] = acc
    s = 0
    while not (not bases[-s - 1] and len(bases[s]) == d):
        s += 1
    return s, {k: bases[k] for k in range(-s, s + 1)}


def _jordan(blocks):
    d = sum(blocks)
    N = [[F(0)] * d for _ in range(d)]
    at = 0
    for b in blocks:
        for i in range(b - 1):
            N[at + i][at + i + 1] = F(1)
        at += b
    return N


def _unimodular(rng, d):
    L = [[F(1) if i == j else F(rng.randint(-2, 2)) if j < i else F(0)
          for j in range(d)] for i in range(d)]
    U = [[F(1) if i == j else F(rng.randint(-2, 2)) if j > i else F(0)
          for j in range(d)] for i in range(d)]
    return linalg.mat_mul(L, U)


def _filtration_cases():
    rng = random.Random(5)
    cases = [[[F(0)]]] + [_jordan(b) for b in
                          ((8,), (12,), (3, 3, 2, 1), (4, 2, 1))]
    for _ in range(16):
        d = rng.randint(1, 7)
        N = [[F(rng.choice((0, 0, -2, -1, 1, 3))) if j > i else F(0)
              for j in range(d)] for i in range(d)]
        cases.append(N)
        P = _unimodular(rng, d)
        cases.append(linalg.mat_mul(linalg.mat_inv(P), linalg.mat_mul(N, P)))
    return cases


@pytest.mark.parametrize("N", _filtration_cases())
def test_jordan_chains_match_the_convolution(N):
    fil = monodromy_filtration(N)
    assert (fil.s, fil.bases) == _convolution_filtration(N)
    assert fil.dim == len(N)


@st.composite
def sheared_jordan_types(draw):
    """(sizes, N): one to eight Jordan blocks of sizes 1-4, sizes repeated
    and J1s among them, conjugated by a unimodular integer matrix."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
    U = _unimodular_drawn(draw, sum(sizes))
    return sizes, linalg.mat_mul(linalg.mat_inv(U),
                                 linalg.mat_mul(_jordan(sizes), U))


def _partition_of_ranks(N):
    """The block sizes of a nilpotent N, largest first, read from the
    ranks r_m of N^m by Fraction Gauss-Jordan: r_(m-1) - 2 r_m + r_(m+1)
    blocks of size m."""
    ranks, power = [len(N)], linalg.identity(len(N))
    while ranks[-1]:
        power = linalg.mat_mul(N, power)
        ranks.append(len(fraction_rref(power)[1]))
    ranks.append(0)
    return [m for m in range(len(ranks) - 2, 0, -1)
            for _ in range(ranks[m - 1] - 2 * ranks[m] + ranks[m + 1])]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sheared_jordan_types())
def test_chains_follow_the_partition_of_the_ranks(problem):
    # a chain of length l puts one vector at each index l - 1, l - 3, ...,
    # 1 - l, so the flag's sizes give the chain lengths
    sizes, N = problem
    s, flag = _jordan_chains(N)
    counts = [len(vs) for vs in flag] + [0, 0]
    lengths = [l for l in range(s + 1, 0, -1)
               for _ in range(counts[s + l - 1] - counts[s + l + 1])]
    assert lengths == _partition_of_ranks(N) == sorted(sizes, reverse=True)
    vectors = [v for vs in flag for v in vs]
    assert len(fraction_rref(vectors)[1]) == len(N)
    # N takes each vector of index k to a positive multiple of one of
    # index k - 2, or to 0
    for k, vs in enumerate(flag):
        for v in vs:
            image = linalg.mat_vec(N, v)
            assert not any(image) or linalg._primitive(image) in [
                linalg._primitive(w) for w in (flag[k - 2] if k > 1
                                               else [])]


def _changed(N, change):
    """The monodromy filtration of N with change(bases) applied."""
    fil = monodromy_filtration(N)
    bases = {k: [list(v) for v in b] for k, b in fil.bases.items()}
    change(bases)
    return MonodromyFiltration(fil.s, bases, fil.dim)


def _e(*xs):
    return [F(x) for x in xs]


def _replace(k, i, v):
    def change(bases):
        bases[k][i] = v
    return change


def _drop(k, i):
    def change(bases):
        del bases[k][i]
    return change


def _set_to_next(k):
    def change(bases):
        bases[k] = list(bases[k + 1])
    return change


J3 = _jordan((3,))              # M_-2 = M_-1 = <e1>, M_0 = M_1 = <e1, e2>
J2J1 = _jordan((2, 1))          # M_-1 = <e1>, M_0 = <e1, e3>
J2J1J1 = _jordan((2, 1, 1))


@pytest.mark.parametrize("N, fil, axiom", [
    (J3, _changed(J3, lambda bases: None), None),
    (J3, _changed(J3, _replace(0, 0, _e(1, 1, 0))), None),
    (J3, _changed(J3, _replace(0, 0, _e(0, 0, 1))), "not increasing"),
    (J3, _changed(J3, _drop(-2, 0)), "N M_k not in M_{k-2}"),
    (J3, _changed(J3, _set_to_next(1)), "N M_k not in M_{k-2}"),
    (J2J1, _changed(J2J1, _set_to_next(-1)), "graded ranks differ"),
    # a dependent list spanning less than M_0
    (J3, _changed(J3, _replace(0, 1, _e(1, 0, 0))), "N M_k not in M_{k-2}"),
    # the filtration of J2 + J2 satisfies every axiom for J2 + J1 + J1
    # except that N : Gr_1 -> Gr_-1 has rank 1
    (J2J1J1, _changed(_jordan((2, 2)), lambda bases: None),
     "N^k not bijective on graded piece"),
    # N = 0 with M_0 a line in a plane: every other axiom holds
    (_jordan((1, 1)), MonodromyFiltration(0, {0: [_e(1, 0)]}, 2),
     "top is not everything"),
], ids=["intact", "other-basis", "replaced", "dropped", "M1-set-to-M2",
        "M-1-set-to-M0", "dependent", "other-nilpotent", "short-top"])
def test_axioms_hold_rejects_each_broken_axiom(N, fil, axiom):
    ok, witness = oracles.verify_monodromy_axioms(
        N, {k: fil.basis(k) for k in range(-fil.s, fil.s + 1)})
    assert (witness and witness[0]) == axiom


@pytest.mark.parametrize("N, change, ok", [
    # a redundant vector in M_0: the spans are the monodromy filtration
    (J3, lambda bases: bases[0].append(_e(1, 1, 0)), True),
    # M_0 = <e1, e3> listed with three vectors: the list lengths give
    # Gr_1 and Gr_-1 rank 1 each, the spans rank 2 and 1
    (J2J1J1, _replace(0, 2, _e(1, 0, 1, 0)), False),
], ids=["redundant", "dependent-with-matching-lengths"])
def test_axioms_read_the_spans_not_the_list_lengths(N, change, ok):
    fil = _changed(N, change)
    assert oracles.verify_monodromy_axioms(
        N, {k: fil.basis(k) for k in range(-fil.s, fil.s + 1)})[0] is ok


def _halves(pick, ends):
    """The heads picked in each half of the ends on its own: the second
    half's picks do not know the first half's."""
    h = len(ends) // 2
    return pick(ends[:h]) + [h + c for c in pick(ends[h:])]


# The head pick (``linalg._pivot_columns`` on the ends of the longest
# runs) made wrong.  The complement of the chains is read off every end,
# so a wrong pick is not mended in the next round.
HEAD_PICKS = pytest.mark.parametrize("mutant", [
    # too few chains: their vectors span less than Q^d
    lambda pick: lambda ends: pick(ends)[1:],
    # too many chains, with the same spans
    lambda pick: lambda ends: list(range(len(ends))),
    lambda pick: lambda ends: _halves(pick, ends),
], ids=["first-head-dropped", "all-candidates-kept", "half-known"])


def _sheared(M):
    """P^-1 M P for the unimodular P of ``_unimodular(Random(0))``: the
    standard basis is no Jordan basis, and for the Jordan types below each
    round of the chains meets several runs of the longest length."""
    P = _unimodular(random.Random(0), len(M))
    return linalg.mat_mul(linalg.mat_inv(P), linalg.mat_mul(M, P))


@HEAD_PICKS
@pytest.mark.parametrize("blocks", [(3,), (2, 2), (4, 2, 1)],
                         ids=["J3", "J2+J2", "J4+J2+J1"])
def test_chain_certificate_refuses_a_wrong_chain_basis(mutant, blocks,
                                                       monkeypatch):
    N = _sheared(_jordan(blocks))
    monkeypatch.setattr(linalg, "_pivot_columns",
                        mutant(linalg._pivot_columns))
    with pytest.raises(AssertionError,
                       match="^Jordan chains do not form a basis$"):
        monodromy_filtration(N)


# The complement W' of the chains (``linalg._integer_kernel``) made
# wrong, for Jordan types with more than one length: it knows only half
# of the conditions N^j v = 0 at the ends' pivot coordinates, or one
# vector of it is lost.
@pytest.mark.parametrize("mutant", [
    lambda kernel: lambda A: kernel(A[len(A) // 2:]),
    lambda kernel: lambda A: kernel(A)[1:],
], ids=["half-known", "first-dropped"])
@pytest.mark.parametrize("blocks", [(4, 2, 1), (3, 3, 1, 1), (2, 1)],
                         ids=["J4+J2+J1", "J3+J3+J1+J1", "J2+J1"])
def test_chain_certificate_refuses_a_wrong_complement(mutant, blocks,
                                                      monkeypatch):
    N = _sheared(_jordan(blocks))
    monkeypatch.setattr(linalg, "_integer_kernel",
                        mutant(linalg._integer_kernel))
    with pytest.raises(AssertionError,
                       match="^Jordan chains do not form a basis$"):
        monodromy_filtration(N)


def _chain_rep(blocks, q=5):
    """N the Jordan blocks, Phi = diag(q^j) along each block, so that
    Phi N Phi^-1 = q^-1 N."""
    phi = linalg.identity(sum(blocks))
    at = 0
    for b in blocks:
        for j in range(b):
            phi[at + j][at + j] = F(q) ** j
        at += b
    return WeilDeligneRep(q, phi, _jordan(blocks))


@pytest.mark.parametrize("blocks", [(1,), (5,), (4, 2, 1), (8,)],
                         ids=["J1", "J5", "J4+J2+J1", "J8"])
def test_nilpotency_is_read_by_squarings(blocks, monkeypatch):
    # N^(2^s) = 0 with 2^s >= dim: J5 and J8 need all three squarings, and
    # no characteristic polynomial is formed
    assert count_calls(monkeypatch, linalg, "charpoly",
                       lambda: _chain_rep(blocks)) == 0


@pytest.mark.parametrize("N", [
    [[F(0), F(1)], [F(1), F(0)]],
    # J3 beside 1/2: N^4 = diag(0, 0, 0, 1/16)
    [[F(0), F(1), F(0), F(0)], [F(0), F(0), F(1), F(0)],
     [F(0), F(0), F(0), F(0)], [F(0), F(0), F(0), F(1, 2)]],
], ids=["swap", "J3+corner"])
def test_non_nilpotent_monodromy_is_refused(N, monkeypatch):
    def run():
        with pytest.raises(NotNilpotent, match="^N is not nilpotent$"):
            WeilDeligneRep(5, linalg.identity(len(N)), N)

    assert count_calls(monkeypatch, linalg, "charpoly", run) == 0


def _held(kind, q=5):
    """Phi = diag(1, q) for the geometric and diag(q, 1) for the arithmetic
    convention: with N = E12 each holds Phi N Phi^-1 = q^eps N only in its
    own convention."""
    a, b = (1, q) if kind is FrobeniusKind.GEOMETRIC else (q, 1)
    return [[F(a), F(0)], [F(0), F(b)]]


E12 = [[F(0), F(1)], [F(0), F(0)]]
FLIP = [[F(-1), F(0)], [F(0), F(1)]]
OTHER = {FrobeniusKind.GEOMETRIC: FrobeniusKind.ARITHMETIC,
         FrobeniusKind.ARITHMETIC: FrobeniusKind.GEOMETRIC}


REFUSALS = pytest.mark.parametrize("data, error, text", [
    # a singular Phi is refused before N is read, also where Phi N = N Phi
    (lambda k: ([[F(1), F(0)], [F(0), F(0)]], None, 1, None),
     NonInvertible, "Phi is singular"),
    (lambda k: ([[F(1), F(2)], [F(2), F(4)]], E12, 1, None),
     NonInvertible, "Phi is singular"),
    (lambda k: (_held(OTHER[k]), E12, 1, None),
     ValueError, "Phi N Phi^-1 != q^eps N for the stated convention"),
    (lambda k: (linalg.identity(2), E12, 1, None),
     ValueError, "Phi N Phi^-1 != q^eps N for the stated convention"),
    (lambda k: (_held(k), E12, 3, FLIP),
     ValueError, "inertia generator order mismatch"),
    (lambda k: (_held(k), None, 1, FLIP),
     ValueError, "inertia generator order mismatch"),
    (lambda k: (_held(k), E12, 2, FLIP),
     ValueError, "inertia does not commute with N"),
    (lambda k: (_held(k), [[F(0), F(1)], [F(1), F(0)]], 1, None),
     NotNilpotent, "N is not nilpotent"),
], ids=["singular", "singular-with-N", "other-convention", "identity-phi",
        "order-3", "order-1", "flip", "not-nilpotent"])


@pytest.mark.parametrize("kind", list(FrobeniusKind), ids=lambda k: k.value)
@REFUSALS
def test_validate_refuses_with_its_text(kind, data, error, text):
    phi, N, order, T = data(kind)
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        WeilDeligneRep(5, phi, N, order, T, kind)
    # the same data in a consistent form is accepted
    WeilDeligneRep(5, _held(kind), E12, 2, [[F(1), F(0)], [F(0), F(1)]],
                   kind)


def _with_denominators(phi, N, T):
    """(Phi, N, T) conjugated by a rational P, Phi and N then scaled by
    3/4 and 2/9: each relation the constructor checks holds or fails as
    before, and the entries carry denominators."""
    P = [[F(1, 2), F(1, 3)], [F(0), F(5, 7)]]
    Pi = linalg.mat_inv(P)

    def conj(M, c=1):
        return (None if M is None else
                linalg.mat_scale(linalg.mat_mul(Pi, linalg.mat_mul(M, P)), c))

    return conj(phi, F(3, 4)), conj(N, F(2, 9)), conj(T)


@pytest.mark.parametrize("kind", list(FrobeniusKind), ids=lambda k: k.value)
@REFUSALS
def test_integer_validation_keeps_every_refusal(kind, data, error, text):
    # the checks run on the integer forms Y = s Phi, Z = t N, U = u T (only
    # T^n = I on T itself): over denominators each refusal keeps its class
    # and its text
    phi, N, order, T = data(kind)
    phi, N, T = _with_denominators(phi, N, T)
    assert any(x.denominator > 1 for M in (phi, N) if M for row in M
               for x in row)
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        WeilDeligneRep(5, phi, N, order, T, kind)
    # the same data in a consistent form is accepted, T of order 2
    phi, N, T = _with_denominators(_held(kind), E12,
                                   [[F(-1), F(0)], [F(0), F(-1)]])
    assert all(any(x.denominator > 1 for row in M for x in row)
               for M in (phi, N))
    rep = WeilDeligneRep(5, phi, N, 2, T, kind)
    assert rep.phi_scaled == linalg._scaled(phi)
    assert rep.N_scaled == linalg._scaled(N)
    assert rep.inertia_scaled == linalg._scaled(T)


@pytest.mark.parametrize("read", [
    lambda rep: trace_table(rep, 4),
    lambda rep: purity_check(rep, 1),
    lambda rep: quasi_purity_check(rep, 0),
    lambda rep: compatibility_family([rep, rep]),
], ids=["trace-table", "purity", "quasi-purity", "family"])
def test_readers_use_the_integer_forms_of_the_rep(read, monkeypatch):
    # Phi, N and the inertia generator are read into integers once, at
    # construction; no reader of the rep scales them again
    phi, N, T = _with_denominators(_held(FrobeniusKind.GEOMETRIC), E12,
                                   [[F(-1), F(0)], [F(0), F(-1)]])
    rep = WeilDeligneRep(5, phi, N, 2, T)
    assert count_calls(monkeypatch, linalg, "_scaled",
                       lambda: read(rep)) == 0


@pytest.mark.parametrize("seed", range(12))
def test_relation_check_matches_the_inverse(seed):
    # Phi N = q^eps N Phi is Phi N Phi^-1 = q^eps N for an invertible Phi:
    # a conjugate of (diag(1, q, q^2), J3) holds it geometrically, and a
    # perturbed N holds it in neither convention
    rng = random.Random(seed)
    while True:
        P = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        if linalg.rank(P) == 3:
            break
    P_inv = linalg.mat_inv(P)
    phi = linalg.mat_mul(linalg.mat_mul(P, [[F(1), F(0), F(0)],
                                            [F(0), F(5), F(0)],
                                            [F(0), F(0), F(25)]]), P_inv)
    N = linalg.mat_mul(linalg.mat_mul(P, _jordan((3,))), P_inv)
    if seed % 2:
        N = linalg.mat_mul(linalg.mat_mul(P, [[F(0), F(1), F(1)],
                                              [F(0), F(0), F(1)],
                                              [F(0), F(0), F(0)]]), P_inv)
    for kind, c in ((FrobeniusKind.GEOMETRIC, F(1, 5)),
                    (FrobeniusKind.ARITHMETIC, F(5))):
        held = (linalg.mat_mul(phi, linalg.mat_mul(N, linalg.mat_inv(phi)))
                == linalg.mat_scale(N, c))
        try:
            WeilDeligneRep(5, phi, N, frobenius_kind=kind)
            accepted = True
        except ValueError as exc:
            assert str(exc).startswith("Phi N Phi^-1 != q^eps N")
            accepted = False
        assert accepted == held
        assert held == (kind is FrobeniusKind.GEOMETRIC and not seed % 2)


@HEAD_PICKS
@pytest.mark.parametrize("blocks", [(3,), (2, 2), (4, 2, 1)],
                         ids=["J3", "J2+J2", "J4+J2+J1"])
@pytest.mark.parametrize("read", [
    lambda rep: trace_table(rep, 4),
    lambda rep: quasi_purity_check(rep, 0),
], ids=["trace-table", "quasi-purity"])
def test_chain_certificate_guards_the_trace_path(read, mutant, blocks,
                                                 monkeypatch):
    # the graded Phi reads the chains as its basis: a wrong chain basis is
    # refused as such, never reported as an IrrationalTrace or a table
    plain = _chain_rep(blocks)
    rep = WeilDeligneRep(plain.q, _sheared(plain.phi), _sheared(plain.N))
    monkeypatch.setattr(linalg, "_pivot_columns",
                        mutant(linalg._pivot_columns))
    with pytest.raises(AssertionError,
                       match="^Jordan chains do not form a basis$"):
        read(rep)


@pytest.mark.parametrize("mix", [[[1, 0], [0, 1]], [[1, 0], [1, 1]]],
                         ids=["phi-keeps-the-chains", "phi-moves-them"])
def test_dependent_chains_are_refused_before_the_trace_verdict(
        mix, monkeypatch):
    # J2 + J2 with its first head taken twice and no chain of length 1:
    # d vectors, each chain ending in ker N, spanning a plane.  The span
    # check comes first, whether or not Phi keeps that plane's flag.
    phi = [[F(mix[i // 2][j // 2] * 5 ** (i % 2)) if i % 2 == j % 2
            else F(0) for j in range(4)] for i in range(4)]
    rep = WeilDeligneRep(5, phi, _jordan((2, 2)))
    pick = linalg._pivot_columns

    def repeated(ends):
        heads = pick(ends)
        return heads[:1] * len(heads)

    monkeypatch.setattr(linalg, "_pivot_columns", repeated)
    with pytest.raises(AssertionError,
                       match="^Jordan chains do not form a basis$"):
        trace_table(rep, 4)


def _sp2_squared():
    sp = special_rep(5)
    one = [[F(1), F(0)], [F(0), F(1)]]
    N = [[x + y for x, y in zip(r, t)]
         for r, t in zip(kron(sp.N, one), kron(one, sp.N))]
    return WeilDeligneRep(5, kron(sp.phi, sp.phi), N)


def _seeded_nilpotent():
    rng = random.Random(6)
    return [[F(rng.randint(-2, 2)) if j > i else F(0) for j in range(6)]
            for i in range(6)]


def _eliminations(monkeypatch, run):
    """(rational eliminations, flag passes) of run(): calls of
    ``linalg._echelon``, each one matrix, and of ``linalg.span_bases``,
    which inserts its blocks without it."""
    passes = []
    calls = count_calls(monkeypatch, linalg, "_echelon", lambda: passes.append(
        count_calls(monkeypatch, linalg, "span_bases", run)))
    return calls, passes[0]


@pytest.mark.parametrize("run, eliminations, passes", [
    # the chains of one length: their ends' pivot coordinates and head
    # pick, no complement left; every span basis comes from the flag pass
    pytest.param(lambda: monodromy_filtration(_jordan((12,))), 2, 1,
                 id="J12"),
    # J4 + J1 + J1: pivot coordinates, head pick and complement for J4,
    # none for the J1s; then the flag pass
    pytest.param(lambda: monodromy_filtration(_seeded_nilpotent()), 3, 1,
                 id="d6"),
    # J3 + J1: 3 eliminations for the chains as in d6, then one for the
    # adapted basis and every coordinate of Phi on it; no flag pass
    pytest.param(lambda rep=_sp2_squared(): trace_table(rep, 4), 4, 0,
                 id="trace-table"),
    # eight J2, sheared: one round for their one length, not one per
    # block; then the flag pass
    pytest.param(lambda N=_sheared(_jordan((2,) * 8)):
                 monodromy_filtration(N), 2, 1, id="8xJ2"),
    # one rank of Phi, for the singularity check: the relation is checked
    # as Phi N = q^eps N Phi, without an inverse
    pytest.param(lambda: special_rep(5), 1, 0, id="special-rep"),
])
def test_eliminations_are_pinned(run, eliminations, passes, monkeypatch):
    # one elimination per subspace question: a per-vector loop would
    # multiply these counts
    assert _eliminations(monkeypatch, run) == (eliminations, passes)


@pytest.mark.parametrize("run, combines", [
    # the unit vectors of J12 never meet a pivot row with an entry
    pytest.param(lambda: monodromy_filtration(_jordan((12,))), 0,
                 id="J12"),
    pytest.param(lambda: monodromy_filtration(_seeded_nilpotent()), 14,
                 id="d6"),
    pytest.param(lambda N=_sheared(_jordan((2,) * 8)):
                 monodromy_filtration(N), 304, id="8xJ2"),
])
def test_row_updates_are_pinned(run, combines, monkeypatch):
    # the chains' eliminations and one flag pass, each vector reduced once:
    # rebuilding each level's basis from the flag prefix would re-reduce
    # the vectors below it and raise these counts
    assert count_calls(monkeypatch, linalg, "_combine", run) == combines


@pytest.mark.parametrize("run", [
    lambda rep: trace_table(rep, 4),
    lambda rep: quasi_purity_check(rep, 0),
    lambda rep: compatibility_family([rep, rep]),
], ids=["trace-table", "quasi-purity", "family"])
def test_graded_phi_builds_no_rref_basis(run, monkeypatch):
    # Phi on Gr_k is read in the Jordan chains: span_bases, the one
    # builder of rref bases, is never called
    rep = _sp2_squared()
    assert count_calls(monkeypatch, linalg, "span_bases",
                       lambda: run(rep)) == 0


# -- weights ----------------------------------------------------------------

def test_weight_of_q_is_two():
    assert weight_of_eigenvalue(5, 5) == 2
    assert weight_of_eigenvalue(1, 5) == 0
    assert weight_of_eigenvalue(F(1, 5), 5) == -2


def test_weight_of_supersingular_quadratic():
    # roots of T^2 + 2 over q = 2 have |a| = sqrt(2)
    assert weight_of_eigenvalue([2, 0, 1], 2) == 1


def test_weight_of_ordinary_quadratic():
    assert weight_of_eigenvalue([5, -2, 1], 5) == 1


def test_non_weil_real_quadratic():
    with pytest.raises(NotWeil):
        weight_of_eigenvalue([-1, -2, 1], 2)  # 1 +- sqrt(2)


def test_non_weil_rational():
    with pytest.raises(NotWeil):
        weight_of_eigenvalue(3, 5)
    with pytest.raises(NotWeil, match="^zero eigenvalue$"):
        weight_of_eigenvalue(0, 5)


def test_arithmetic_convention_negates():
    assert weight_of_eigenvalue(5, 5, FrobeniusKind.ARITHMETIC) == -2


def test_weight_of_prime_power_q():
    # q = 4 = 2^2: alpha = 2 has |2| = 4^(1/2), weight 1
    assert weight_of_eigenvalue(2, 4) == 1


def test_numeric_weight_degree_four():
    # (T^2 + 2)(T^2 - 2T + 2): all roots of modulus sqrt(2)
    assert weight_of_eigenvalue([4, -4, 4, -2, 1], 2) == 1


@pytest.mark.parametrize("poly, q, weight", [
    ([8, 0, 0, 1], 2, 2),                   # T^3 + 8: -2 and 2 e^(+-i pi/3)
    ([-4, 0, 0, 0, 1], 2, 1),               # T^4 - 4: +-sqrt(2) and +-i sqrt(2)
    ([1, 1, 1, 1, 1], 3, 0),                # fifth roots of unity but 1
    ([F(1, 9), 0, 0, 0, 1], 3, -1),         # T^4 + q^-2
    # a rational root alone on its circle, beside a pair or by itself
    ([-125, 25, -5, 1], 5, 2),              # (T - 5)(T^2 + 25)
    ([F(1, 5), 1], 5, -2),                  # T + 1/5
    ([-8, 4, -2, 1], 4, 1),                 # (T - 2)(T^2 + 4), q = 2^2
])
def test_weight_degree_three_and_up(poly, q, weight):
    assert weight_of_eigenvalue(poly, q) == weight


@pytest.mark.parametrize("poly, q", [
    ([-1, -1, 0, 1], 2),                    # T^3 - T - 1: moduli differ
    ([-2, 0, 0, 1], 2),                     # T^3 - 2: |alpha|^2 = 2^(2/3)
    ([2, 0, -3, 0, 1], 2),                  # (T^2 - 1)(T^2 - 2): weights 0, 1
])
def test_degree_three_and_up_not_weil(poly, q):
    with pytest.raises(NotWeil):
        weight_of_eigenvalue(poly, q)


# -- eigen-weights against the oracle ---------------------------------------

def _companion(coeffs):
    d = len(coeffs) - 1
    M = [[F(0)] * d for _ in range(d)]
    for i in range(1, d):
        M[i][i - 1] = F(1)
    for i in range(d):
        M[i][d - 1] = -F(coeffs[i]) / coeffs[-1]
    return M


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[F(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


@st.composite
def eigen_factors(draw, q):
    """One factor of a characteristic polynomial, low-to-high."""
    kind = draw(st.sampled_from(["weil", "weil", "rational", "sqrt",
                                 "quartic", "complex-bad", "real-bad",
                                 "rational-bad", "cubic-bad", "zero",
                                 "p-power"]))
    p = min(d for d in range(2, q + 1) if q % d == 0)
    if kind == "weil":
        a = draw(st.sampled_from([a for a in range(-2 * q, 2 * q + 1)
                                  if a * a < 4 * q]))
        f = [F(q), F(-a), F(1)]
    elif kind == "rational":                # T -+ q^k
        f = [draw(st.sampled_from([-1, 1])) * F(q) ** draw(
            st.integers(-2, 2)), F(1)]
    elif kind == "sqrt":                    # roots +-q^(k/2)
        f = [-F(q) ** draw(st.integers(-1, 3)), F(0), F(1)]
    elif kind == "quartic":                 # T^4 + q^2
        f = [F(q * q), F(0), F(0), F(0), F(1)]
    elif kind == "complex-bad":             # |alpha|^2 = b, not a q-power
        b = draw(st.sampled_from([6, 7, 10, 11]))
        f = [F(b), F(draw(st.integers(-2, 2))), F(1)]
    elif kind == "real-bad":                # real roots of unequal size
        a = draw(st.integers(1, 4))
        f = draw(st.sampled_from([[F(-1), F(a), F(1)],
                                  [F(q), F(-a - 2 * q), F(1)]]))
    elif kind == "rational-bad":
        f = [F(-draw(st.sampled_from([6, -10, F(1, 6)]))), F(1)]
    elif kind == "zero":                    # T: no weight
        f = [F(0), F(1)]
    elif kind == "p-power":                 # T -+ p^j, weight 2j / f
        f = [draw(st.sampled_from([-1, 1])) * F(p) ** draw(
            st.integers(-3, 3)), F(1)]
    else:
        # irreducible cubics with roots of two sizes
        f = [F(x) for x in draw(st.sampled_from(
            [(-1, -1, 0, 1), (-5, 0, -2, 1), (-6, 0, 1, 1),
             (-4, -3, -1, 1)]))]
    if kind != "cubic-bad" and draw(st.booleans()):
        # Tate twist: roots times q^-n
        c = F(1, q) ** draw(st.sampled_from([-1, 1, 2]))
        d = len(f) - 1
        f = [x * c ** (d - i) for i, x in enumerate(f)]
    return f


@st.composite
def eigen_problems(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 9]))
    factors = draw(st.lists(eigen_factors(q), min_size=1, max_size=3))
    # repeated factors
    factors += draw(st.lists(st.sampled_from(factors), max_size=2))
    return q, factors


def test_circle_scan_alone_gives_the_weights(monkeypatch):
    # the exact scan over the root bounds is the only circle finder
    from phinabla import weil_deligne
    # (T^2 - T + 2)(T^2 + 1/2)(T^2 + 4): weights 1, -1, 2 over q = 2, and
    # k0 = 2 log|a_0| / (n log p) = 2/3 is the weight of no root
    poly = [F(x) for x in (4, -2, 11, F(-9, 2), F(13, 2), -1, 1)]
    assert weil_deligne._root_weights(poly, 2, 1) == [-1, 1, 2]
    # one weight: the k0 circle holds every root, one count places them
    counts = []
    on_circle = weil_deligne._on_circle
    monkeypatch.setattr(weil_deligne, "_on_circle",
                        lambda poly, c: counts.append(c) or on_circle(poly, c))
    assert weil_deligne._root_weights([F(4), 0, 0, 0, F(1)], 2, 1) == [1]
    assert counts == [2]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(eigen_problems())
def test_weights_of_matches_oracle(problem):
    q, factors = problem
    M = _block_diag([_companion(f) for f in factors])
    try:
        expected = sorted({w for f in factors
                           for w in oracles.algebraic_weight(f, q)})
    except NotWeil:
        with pytest.raises(NotWeil):
            _weights_of(M, q, FrobeniusKind.GEOMETRIC)
        return
    assert _weights_of(M, q, FrobeniusKind.GEOMETRIC) == expected
    assert _weights_of(M, q, FrobeniusKind.ARITHMETIC) == \
        sorted(-w for w in expected)


@st.composite
def scaled_polynomials(draw):
    """(q, product of ``eigen_problems`` factors, repeats included, with
    its roots times q^n for n in {0, +-1, +-2}, times a non-zero rational
    of either sign)."""
    q, factors = draw(eigen_problems())
    poly = [F(1)]
    for f in factors:
        poly = [sum((poly[j] * f[i - j] for j in range(len(poly))
                     if 0 <= i - j < len(f)), F(0))
                for i in range(len(poly) + len(f) - 1)]
    c = F(q) ** draw(st.sampled_from([0, -2, -1, 1, 2]))
    scalar = draw(st.fractions(-50, 50, max_denominator=50).filter(bool))
    d = len(poly) - 1
    return q, [scalar * x * c ** (d - i) for i, x in enumerate(poly)]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scaled_polynomials())
def test_integer_remainder_sequences_match_fraction_reference(problem):
    # the primitive integer remainder sequences against the Fraction
    # gcds and Sturm chains they replace: same weights or NotWeil message,
    # same rational roots and remaining factor, types included
    from phinabla import weil_deligne
    q, poly = problem
    p, f = weil_deligne._prime_power(q)

    def weights(root_weights):
        try:
            return repr(root_weights(poly, p, f))
        except NotWeil as exc:
            return f"NotWeil: {exc}"
    assert weights(weil_deligne._root_weights) == \
        weights(fraction_root_weights)
    assert repr(linalg._rational_roots(poly)) == \
        repr(fraction_rational_roots(poly))


# -- representations and purity ---------------------------------------------

def test_constructor_enforces_equivariance():
    # Phi = diag(q, 1) with N = E_12 gives the wrong scalar
    with pytest.raises(ValueError):
        WeilDeligneRep(5, [[5, 0], [0, 1]], [[0, 1], [0, 0]])


@pytest.mark.parametrize("args, name", [
    (([[1, 2, 3]],), "phi"),
    (([[1, 0], [0]],), "phi"),
    (([[1, 0], [0, 5]], [[0, 1, 0], [0, 0, 0]]), "N"),
    (([[1]], None, 2, [[-1], [0]]), "inertia_matrix"),
], ids=["1x3-phi", "ragged-phi", "2x3-N", "2x1-inertia"])
def test_constructor_refuses_misshapen_matrices(args, name):
    with pytest.raises(ValueError, match=f'^"{name}" must be a '):
        WeilDeligneRep(5, *args)


def test_constructor_enforces_nilpotence():
    with pytest.raises(NotNilpotent):
        WeilDeligneRep(5, [[1, 0], [0, 1]], [[1, 0], [0, 1]])


def test_sp2_not_pure_but_quasi_pure():
    rep = special_rep(5)
    assert not purity_check(rep, 1).pure
    qp = quasi_purity_check(rep, 1)
    assert qp.pure
    found = {g.index: g.weights for g in qp.graded}
    assert found == {-1: [F(0)], 1: [F(2)]}


def test_trivial_rep_pure_weight_zero():
    rep = WeilDeligneRep(5, [[F(1)]])
    assert purity_check(rep, 0).pure


def test_dimension_zero_rep_is_pure():
    rep = WeilDeligneRep(5, [], [])
    assert _weights_of([], 5, FrobeniusKind.GEOMETRIC) == []
    assert purity_check(rep, 0).pure and purity_check(rep, 3).pure
    assert quasi_purity_check(rep, 0).pure


def test_purity_implies_quasi_purity_when_n_zero():
    rep = WeilDeligneRep(5, [[0, -5], [1, 2]])
    assert purity_check(rep, 1).pure
    assert quasi_purity_check(rep, 1).pure


def test_twist_shifts_weights():
    rep = WeilDeligneRep(5, [[F(1)]])
    assert purity_check(twist(rep, 1), -2).pure
    assert purity_check(twist(twist(rep, 1), -1), 0).pure


def test_twist_shifts_quasi_purity_on_sp2():
    rep = special_rep(5)
    assert quasi_purity_check(twist(rep, 1), -1).pure


def test_inertia_validation():
    T = [[F(-1)]]
    rep = WeilDeligneRep(4, [[F(2)]], inertia_order=2, inertia_matrix=T)
    assert rep.inertia_order == 2
    with pytest.raises(ValueError):
        WeilDeligneRep(4, [[F(2)]], inertia_order=3, inertia_matrix=T)


# -- families ---------------------------------------------------------------

def test_identical_family_compatible():
    fam = compatibility_family([special_rep(5), special_rep(5)], 6)
    assert fam.compatible


def test_sp2_vs_unramified_incompatible():
    unram = WeilDeligneRep(5, [[1, 0], [0, 5]])
    fam = compatibility_family([special_rep(5), unram], 6)
    assert not fam.compatible
    idx, key, _got, _ref = fam.witness
    assert idx == 1


def test_inertia_order_alone_is_compared():
    # orders 2 and 4 with no inertia matrix leave the trace tables equal
    base = WeilDeligneRep(5, [[F(1), F(0)], [F(0), F(5)]], inertia_order=2)
    other = WeilDeligneRep(5, base.phi, inertia_order=4)
    assert trace_table(base, 6) == trace_table(other, 6)
    fam = compatibility_family([base, base, other], 6)
    assert not fam.compatible
    assert fam.witness == (2, ("inertia", "order"), 4, 2)
    assert compatibility_family([base, base], 6).compatible


def test_trace_table_shape():
    tab = trace_table(special_rep(5), 3)
    assert tab[(-1, 1)] == 1
    assert tab[(1, 2)] == 25
    assert (0, 1) not in tab


def test_trace_table_conjugation_invariance():
    rep = special_rep(5)
    U = [[F(1), F(3)], [F(0), F(1)]]
    Ui = linalg.mat_inv(U)
    conj = lambda M: linalg.mat_mul(Ui, linalg.mat_mul(M, U))
    other = WeilDeligneRep(5, conj(rep.phi), conj(rep.N))
    assert trace_table(rep, 5) == trace_table(other, 5)


def test_singleton_family_compatible():
    assert compatibility_family([special_rep(7)], 6).compatible


def test_json_roundtrip():
    rep = special_rep(5)
    back = WeilDeligneRep.from_json(rep.to_json())
    assert back.phi == rep.phi
    assert back.N == rep.N
    assert back.frobenius_kind is rep.frobenius_kind


@pytest.mark.parametrize("weigh", [weight_of_eigenvalue,
                                   oracles.algebraic_weight])
def test_numeric_weights_keep_mpmath_precision(weigh):
    # T^4 + 25 has no rational root: the oracle takes its numeric path
    before = mpmath.mp.dps
    weigh([25, 0, 0, 0, 1], 5)
    assert mpmath.mp.dps == before


# -- families read deep enough to decide -------------------------------------

def _companion(charpoly):
    """Companion matrix of the monic polynomial given low-to-high."""
    d = len(charpoly) - 1
    return [[F(1) if i == j + 1 else F(0) for j in range(d - 1)]
            + [-F(charpoly[i])] for i in range(d)]


def test_seventh_roots_of_128_are_told_apart():
    # T^7 - 128 and T^7 + 128 at q = 4: pure of weight 1, N = 0; their
    # power sums agree for n < 7
    zero = [[F(0)] * 7 for _ in range(7)]
    minus = WeilDeligneRep(4, _companion([-128] + [0] * 6 + [1]), zero)
    plus = WeilDeligneRep(4, _companion([128] + [0] * 6 + [1]), zero)
    assert [trace_table(minus, 6)[(0, n)] for n in range(1, 7)] == \
        [trace_table(plus, 6)[(0, n)] for n in range(1, 7)]
    fam = compatibility_family([minus, plus])
    assert not fam.compatible
    assert fam.witness[1] == (0, 7)
    assert fam.depth == 7


def _unimodular_drawn(draw, d):
    """A random integer matrix of determinant 1, as a product of shears."""
    U = linalg.identity(d)
    for _ in range(draw(st.integers(0, d))):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        if i != j:
            c = draw(st.sampled_from([-1, 1]))
            U = [[U[r][k] + (c * U[j][k] if r == i else 0)
                  for k in range(d)] for r in range(d)]
    return U


def _rep_of(charpoly, with_sp2, q, U):
    """Unramified Phi = companion(charpoly), tensored with Sp(2) when
    asked (graded pieces Gr_-1, Gr_1 of the charpoly's degree), conjugated
    by U."""
    C = _companion(charpoly)
    d = len(C)
    if with_sp2:
        C = [[a * b for a in ra for b in rb]
             for ra in C for rb in [[F(1), F(0)], [F(0), F(q)]]]
        N = [[a * b for a in ra for b in rb]
             for ra in linalg.identity(d) for rb in [[F(0), F(1)],
                                                     [F(0), F(0)]]]
    else:
        N = [[F(0)] * d for _ in range(d)]
    Ui = linalg.mat_inv(U)
    conj = lambda M: linalg.mat_mul(Ui, linalg.mat_mul(M, U))
    return WeilDeligneRep(q, conj(C), conj(N))


@st.composite
def family_problems(draw):
    d = draw(st.integers(1, 10))
    lower = [draw(st.integers(-3, 3)) for _ in range(d)]
    if lower[0] == 0:
        lower[0] = draw(st.sampled_from([-2, -1, 1, 2]))
    with_sp2 = draw(st.booleans())
    q = draw(st.sampled_from([2, 3, 4, 5]))
    size = 2 * d if with_sp2 else d
    return (lower + [1], with_sp2, q, _unimodular_drawn(draw, size),
            _unimodular_drawn(draw, size), draw(st.integers(0, d - 1)),
            draw(st.sampled_from([-2, -1, 1, 2])))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(family_problems())
def test_family_verdict_is_exact_up_to_dimension_ten(problem):
    charpoly, with_sp2, q, U, V, i, delta = problem
    base = _rep_of(charpoly, with_sp2, q, U)
    assert compatibility_family([base, _rep_of(charpoly, with_sp2, q,
                                                V)]).compatible
    changed = list(charpoly)
    changed[i] += delta
    if changed[0] == 0:     # Phi must stay invertible
        changed[0] = 2 * delta
    fam = compatibility_family([base, _rep_of(changed, with_sp2, q, V)])
    assert not fam.compatible and fam.witness[0] == 1


# -- trace tables against explicit powers ------------------------------------

@st.composite
def traced_reps(draw):
    """C (x) Sp(m) for a random invertible d x d C with many zero entries,
    m in 1..3 (Phi = C (x) diag(1, q^e, .., q^(e(m-1))), N = I (x) J_m,
    e = 1 for geometric and -1 for arithmetic Frobenius), with an inertia
    generator P (x) I_m for a permutation matrix P of the C factor when
    asked, everything conjugated by a unimodular U."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(list(FrobeniusKind)))
    e = 1 if kind is FrobeniusKind.GEOMETRIC else -1
    entry = st.one_of(st.just(F(0)), st.fractions(-4, 4, max_denominator=3))
    C = [[draw(entry) for _ in range(d)] for _ in range(d)]
    assume(linalg.mat_inv(C) is not None)
    phi = kron(C, [[F(q) ** (e * i) if i == j else F(0) for j in range(m)]
                    for i in range(m)])
    N = kron(linalg.identity(d), [[F(int(j == i + 1)) for j in range(m)]
                                   for i in range(m)])
    order, T = 1, None
    perm = draw(st.permutations(range(d)))
    if draw(st.booleans()) and perm != list(range(d)):
        P = [[F(int(perm[i] == j)) for j in range(d)] for i in range(d)]
        while linalg.mat_pow(P, order) != linalg.identity(d):
            order += 1
        order *= draw(st.sampled_from([1, 2]))
        T = kron(P, linalg.identity(m))
    U = _unimodular_drawn(draw, d * m)
    Ui = linalg.mat_inv(U)
    conj = lambda M: None if M is None else \
        linalg.mat_mul(Ui, linalg.mat_mul(M, U))
    return (WeilDeligneRep(q, conj(phi), conj(N), order, conj(T), kind),
            draw(st.integers(0, 8)))


def _trace_on(P, basis):
    """Trace of P on the P-stable span of ``basis``: the diagonal of the
    coordinates of P b in the basis."""
    if not basis:
        return F(0)
    coords = linalg.solve(linalg.transpose(basis),
                          [linalg.mat_vec(P, b) for b in basis])
    return sum((x[i] for i, x in enumerate(coords)), F(0))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(traced_reps())
def test_trace_table_matches_explicit_powers(problem):
    # Tr(Phi^n | Gr_k) = Tr(Phi^n | M_k) - Tr(Phi^n | M_(k-1)) from mat_pow,
    # and Tr(T^j) from mat_pow of the inertia generator
    rep, n_max = problem
    fil = monodromy_filtration(rep.N)
    expected = {}
    for k in range(-fil.s, fil.s + 1):
        dim = fil.graded_rank(k)
        for n in range(1, max(n_max, dim) + 1 if dim else 1):
            P = linalg.mat_pow(rep.phi, n)
            expected[(k, n)] = (_trace_on(P, fil.basis(k))
                                - _trace_on(P, fil.basis(k - 1)))
    if rep.inertia_matrix is not None:
        for j in range(1, rep.inertia_order):
            Tj = linalg.mat_pow(rep.inertia_matrix, j)
            expected[("inertia", j)] = sum(
                (Tj[i][i] for i in range(rep.dim)), F(0))
    table = trace_table(rep, n_max)
    assert table == expected
    assert all(type(v) is F for v in table.values())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(traced_reps(), st.integers(-3, 3))
def test_tate_twists_scale_trace_tables(problem, n):
    # twist(rep, n) has Phi q^-n Phi: Tr(Phi^m | Gr_k) scales by q^(-n m),
    # exactly, and the inertia traces stay
    rep, n_max = problem
    table = trace_table(rep, n_max)
    twisted = trace_table(twist(rep, n), n_max)
    assert twisted.keys() == table.keys()
    for (k, m), value in table.items():
        scale = 1 if k == "inertia" else F(rep.q) ** (-n * m)
        assert twisted[k, m] == scale * value
    assert all(type(v) is F for v in twisted.values())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(traced_reps(), st.sampled_from(["", "E", "H^1(X)(2)"]))
def test_json_roundtrip_random_reps(problem, label):
    rep, _n_max = problem
    rep.label = label
    text = json.dumps(rep.to_json())
    back = WeilDeligneRep.from_json(json.loads(text))
    assert (back.q, back.phi, back.N, back.inertia_order,
            back.inertia_matrix, back.frobenius_kind, back.label) == (
        rep.q, rep.phi, rep.N, rep.inertia_order, rep.inertia_matrix,
        rep.frobenius_kind, rep.label)
    assert json.dumps(back.to_json()) == text


# -- graded pieces over the integers -----------------------------------------

@st.composite
def stable_flags(draw):
    """(Phi, flag, bad): flag[k] a basis of the span of the first ends[k]
    columns c_j of a unimodular integer P, each vector a rational multiple
    of c_j plus a combination of the c_i before it; Phi = P B P^-1 with B
    zero where row i lies in a later block than column j (rows past
    ends[-1] lie in no block), its other entries rational with denominators
    p^0 .. p^6 and either sign.  bad moves one c_j off its block, or is
    None when every block reaches the whole space."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 5))
    ends = []
    for size in draw(st.lists(st.integers(0, 2), min_size=1, max_size=4)):
        ends.append(min(d, (ends[-1] if ends else 0) + size))
    block = [next((k for k, e in enumerate(ends) if i < e), len(ends))
             for i in range(d)]
    entry = st.builds(lambda a, e: F(a, p ** e), st.integers(-40, 40),
                      st.integers(0, 6))
    B = [[draw(entry) if block[i] <= block[j] else F(0) for j in range(d)]
         for i in range(d)]
    P = [[F(1) if i == j else F(draw(st.integers(-3, 3))) if j < i
          else F(0) for j in range(d)] for i in range(d)]
    P = linalg.mat_mul(P, linalg.transpose(_unimodular_drawn(draw, d)))
    cols = linalg.transpose(P)
    scale = st.fractions(-9, 9, max_denominator=p ** 3).filter(bool)

    def vector(j):
        coeffs = [draw(st.integers(-2, 2)) for _ in range(j)] + [1]
        t = draw(scale)
        return [t * sum(a * cols[i][x] for i, a in enumerate(coeffs))
                for x in range(d)]

    flag = [[vector(j) for j in range(e)] for e in ends]
    conj = lambda M: linalg.mat_mul(P, linalg.mat_mul(M, linalg.mat_inv(P)))
    bad = None
    off = [(i, j) for j in range(ends[-1]) for i in range(d)
           if block[i] > block[j]]
    if off:
        i, j = draw(st.sampled_from(off))
        B2 = [list(row) for row in B]
        B2[i][j] += draw(st.sampled_from([F(-1), F(1, p)]))
        bad = conj(B2)
    return conj(B), flag, bad


def _quotient_reference(phi, lower, upper):
    """Phi on span(upper) / span(lower) in the vectors of upper that
    complete lower, by Fraction Gauss-Jordan."""
    comp = fraction_completion(lower, upper)
    if not comp:
        return []
    coords = fraction_solve(linalg.transpose(lower + comp),
                            [linalg.mat_vec(phi, v) for v in comp])
    return linalg.transpose([x[len(lower):] for x in coords])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stable_flags())
def test_graded_pieces_match_fraction_solves(problem):
    # Y_k / s_k is the matrix of Phi on Gr_k in the primitive multiples of
    # the flag's vectors; a flag Phi does not keep gives None
    phi, flag, bad = problem
    pieces = _graded(*linalg._scaled(phi), flag)
    primitive = [[linalg._primitive(v) for v in basis] for basis in flag]
    assert len(pieces) == len(flag)
    for k, (Y, s) in enumerate(pieces):
        assert type(s) is int and s > 0
        assert all(type(x) is int for row in Y for x in row)
        lower = primitive[k - 1] if k else []
        expected = _quotient_reference(phi, lower, primitive[k])
        assert [[F(y, s) for y in row] for row in Y] == expected
    if bad is not None:
        assert _graded(*linalg._scaled(bad), flag) is None


@st.composite
def jordan_reps(draw):
    """Jordan blocks N; on the m blocks of one size b, Phi = A (x)
    diag(1, q, ..., q^(b-1)) for an invertible rational m x m A, so that
    Phi N Phi^-1 = q^-1 N and Gr_k carries a non-diagonal Phi; both
    conjugated by a unimodular integer matrix."""
    q = draw(st.sampled_from([2, 3, 5]))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    blocks = sorted(sizes, reverse=True)
    d = sum(blocks)
    phi = linalg.zeros(d, d)
    starts = [sum(blocks[:i]) for i in range(len(blocks))]
    entry = st.fractions(-4, 4, max_denominator=3)
    for b in set(blocks):
        group = [a for a, size in zip(starts, blocks) if size == b]
        m = len(group)
        A = [[draw(entry.filter(bool)) if i == j else
              draw(entry) if j > i else F(0) for j in range(m)]
             for i in range(m)]
        A = linalg.mat_mul(_unimodular_drawn(draw, m), A)
        for i, at in enumerate(group):
            for i2, at2 in enumerate(group):
                for j in range(b):
                    phi[at2 + j][at + j] = A[i2][i] * F(q) ** j
    U = _unimodular_drawn(draw, d)
    Ui = linalg.mat_inv(U)
    conj = lambda M: linalg.mat_mul(Ui, linalg.mat_mul(M, U))
    return WeilDeligneRep(q, conj(phi), conj(_jordan(blocks)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(jordan_reps())
def test_chain_basis_and_rref_flag_give_the_same_traces(rep):
    # Phi on Gr_k in the Jordan chains, against Phi on the rref bases of
    # the filtration's M_k: the same traces on every graded piece
    got, expected = {}, {}
    for k, Y, s in _graded_phi(rep):
        _add_traces(got, k, Y, s, len(Y) + 2)
    fil = monodromy_filtration(rep.N)
    pieces = _graded(*rep.phi_scaled, [fil.basis(k) for k in range(-fil.s,
                                                                 fil.s + 1)])
    for k, (Y, s) in enumerate(pieces, start=-fil.s):
        if Y:
            _add_traces(expected, k, Y, s, len(Y) + 2)
    assert got == expected
