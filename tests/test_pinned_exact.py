"""Pinned exact outputs: the SHA-256 of a seeded corpus of exact results.

Any change to how the exact layers compute (the elimination, the ring
inverse, the facet scan) must leave every Fraction, pivot, basis and facet
as it was.  The corpus below is rebuilt from fixed seeds and serialized as
canonical JSON (sorted keys, rationals as "p/q"); its digest was recorded
before the integer elimination replaced the Fraction one, and recomputed
with the rings' leading monomials left out of the records on the code just
before the ring stopped keeping them.  A second corpus,
the quadric slices of the seeded point sets and normal forms of seeded
polynomials, was recorded before monomials were evaluated in integers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

import corpus
from thetabody.exactalg import (
    Monomial, PointSet, buchberger_moller, format_rational, rational_rref)
from thetabody.geomexact import classify_01, facets
from thetabody.quadrics import quadric_space_from_points

PINNED_SHA256 = "b48c87bb336b041273fe95d4896602af901f3c5c2f5405467e2cfc90f4c4aaa8"
PINNED_EVALUATION_SHA256 = "1aa19b98581b16bf4720f8807236ec8ccdb3675cab3399af73c4da7ae2e5d80a"


def _fmt(rows):
    return [[format_rational(v) for v in row] for row in rows]


def _random_point_set(rng):
    dim = rng.randint(1, 3)
    pts = {
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(dim))
        for _ in range(rng.randint(2, 16))
    }
    return PointSet(dim, sorted(pts))


def _random_matrix(rng):
    rows, cols = rng.randint(1, 6), rng.randint(1, 7)
    m = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.8 else Fraction(0)
         for _ in range(cols)]
        for _ in range(rows)
    ]
    if rows > 2:  # a dependent row: a combination of two earlier ones
        m[-1] = [a * rng.randint(-3, 3) + b for a, b in zip(m[0], m[1])]
    return m


def _ring_record(ps):
    ring = buchberger_moller(ps)
    size = len(ring)
    return {
        "basis": [str(m) for m in ring.basis],
        "inverse": [[format_rational(Fraction(v, den)) for v in row]
                    for row, den in ring._inverse],
        "products": [
            sorted((l, format_rational(c)) for l, c in ring.product_normal_form(i, j).items())
            for i, j in itertools.combinations_with_replacement(range(size), 2)
        ],
    }


def _corpus():
    rng = random.Random(20)
    rings = [corpus.tri3(), corpus.quad4(), corpus.curve14(), corpus.cube(3),
             corpus.cross_polytope(3), corpus.hypersimplex_2_4()]
    rings += [_random_point_set(rng) for _ in range(10)]
    rref = [rational_rref(_random_matrix(rng)) for _ in range(25)]
    cube4 = list(itertools.product((0, 1), repeat=4))
    hulls = [corpus.cube(3), corpus.cube(4), corpus.cross_polytope(3),
             corpus.cross_polytope(4)]
    hulls += [PointSet(4, sorted(rng.sample(cube4, rng.randint(5, 12)))) for _ in range(6)]
    return {
        "rings": [_ring_record(ps) for ps in rings],
        "rref": [{"rows": _fmt(rows), "pivots": pivots} for rows, pivots in rref],
        "facets": [[f.to_json() for f in facets(ps)] for ps in hulls],
        "classify01": [c.to_json() for c in classify_01(3)],
    }


def test_exact_outputs_match_pinned_digest():
    text = json.dumps(_corpus(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256


def _random_small_set(rng):
    """2-8 points in R^2..R^4, few enough that quadrics vanish on them; the
    last coordinate is constant on S in about one set of three."""
    dim = rng.randint(2, 4)
    constant = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.35 else None
    pts = {
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 9)) for _ in range(dim - 1))
        + (constant if constant is not None else Fraction(rng.randint(-6, 6), rng.randint(1, 9)),)
        for _ in range(rng.randint(2, 8))
    }
    return PointSet(dim, sorted(pts))


def _random_polynomial(rng, ring):
    """Random monomials of degree <= 4, a constant and a basis monomial, with
    rational coefficients."""
    dim = ring.dim
    terms = {Monomial(tuple(rng.randint(0, 2) for _ in range(dim))):
             Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 6))}
    terms[Monomial.unit(dim)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    terms[rng.choice(ring.basis)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return terms


def _evaluation_corpus():
    rng = random.Random(20)
    sets = [corpus.tri3(), corpus.quad4(), corpus.curve14(), corpus.cube(3),
            corpus.cross_polytope(3), corpus.hypersimplex_2_4()]
    sets += [_random_point_set(rng) for _ in range(10)]
    small = random.Random(22)
    sets += [_random_small_set(small) for _ in range(12)]
    poly_rng = random.Random(21)
    records = []
    for ps in sets:
        ring = buchberger_moller(ps)
        records.append({
            "slice": _fmt(quadric_space_from_points(ps).vectors),
            "normalForms": [
                sorted((l, format_rational(c))
                       for l, c in ring.normal_form(_random_polynomial(poly_rng, ring)).items())
                for _ in range(4)
            ],
        })
    return records


def test_slices_and_normal_forms_match_pinned_digest():
    text = json.dumps(_evaluation_corpus(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_EVALUATION_SHA256
