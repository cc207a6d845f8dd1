"""Differential test of the torsion tower on J against Gamma_p R tensor J.

`reference_tensor` is the windowed (x) windowed product that `twist_check`
and `theorem_bc_check` took before they read Gamma_p R (x) J off the torsion
tower on J (Gamma_p is smashing): each bidegree is the quotient of the k-tensor
products by the balancing relations.  On the window, its homology on a
stage of Gamma_p R and J must equal the homology of the same stage of
Gamma_p J.
"""

from typing import Dict, List, Tuple

import pytest

from localduality.complexes import (BiDeg, WindowedComplex, _inclusion,
                                    homology, module_complex)
from localduality.exactla import SparseMatrix, quotient_projection
from localduality.graded import GradedModule, GradedRing, Window
from localduality.torsion import (_ideal_data, _koszul_tower, _materialize,
                                  gamma)
from conftest import max_ideal


def reference_tensor(a: WindowedComplex, b: WindowedComplex) -> WindowedComplex:
    """Tensor over the ring, realized degreewise.

    Each bidegree is the quotient of the direct sum of k-tensor products by
    the balancing relations (g x) @ y - x @ (g y) over the ring generators;
    telescoping makes generator-level balancing sufficient.  Differential:
    d(x @ y) = dx @ y + (-1)^s x @ dy.
    """
    ring = a.ring
    fld = ring.field
    t_top = a.t_top + b.t_top
    t_lo = max(a.window.t_lo + b.t_top, b.window.t_lo + a.t_top)
    t_hi = min(a.window.t_hi + b.t_top, b.window.t_hi + a.t_top)
    if t_lo > t_hi:
        t_hi = t_lo
    w = Window(t_lo, min(t_hi, t_top) if t_hi >= t_lo else t_lo)
    s_lo, s_hi = a.s_min + b.s_min, a.s_max + b.s_max

    # raw summand layout per bidegree: list of (s1, t1, d1, d2, offset)
    layout: Dict[BiDeg, List[Tuple[int, int, int, int, int]]] = {}
    raw_dim: Dict[BiDeg, int] = {}
    for s in range(s_lo, s_hi + 1):
        for t in range(w.t_lo, t_top + 1):
            parts = []
            off = 0
            for s1 in range(a.s_min, a.s_max + 1):
                s2 = s - s1
                if s2 < b.s_min or s2 > b.s_max:
                    continue
                for t1 in range(t - b.t_top, a.t_top + 1):
                    t2 = t - t1
                    d1, d2 = a.dim(s1, t1), b.dim(s2, t2)
                    if d1 and d2:
                        parts.append((s1, t1, d1, d2, off))
                        off += d1 * d2
            layout[(s, t)] = parts
            raw_dim[(s, t)] = off

    # balancing relation span, quotient projections and sections of them;
    # any section works because the maps we conjugate descend to the quotient
    proj: Dict[BiDeg, SparseMatrix] = {}
    section: Dict[BiDeg, SparseMatrix] = {}
    for (s, t), parts in layout.items():
        pos = {(p[0], p[1]): p for p in parts}
        rows: List[Dict[int, int]] = []
        for g, gen in enumerate(ring.generators):
            dg = gen.degree
            for s1 in range(a.s_min, a.s_max + 1):
                s2 = s - s1
                if s2 < b.s_min or s2 > b.s_max:
                    continue
                for t1x in range(t - b.t_top - dg, a.t_top + 1):
                    # x in a at (s1, t1x); relation (g x) @ y - x @ (g y)
                    t1g = t1x + dg
                    t2y = t - t1g
                    dx = a.dim(s1, t1x)
                    dy = b.dim(s2, t2y)
                    if dx == 0 or dy == 0:
                        continue
                    ga = a.action(g, s1, t1x)        # (s1,t1x) -> (s1,t1g)
                    gb = b.action(g, s2, t2y)        # (s2,t2y) -> (s2,t2y+dg)
                    left = pos.get((s1, t1g))
                    right = pos.get((s1, t1x))
                    for ix in range(dx):
                        for iy in range(dy):
                            row: Dict[int, int] = {}
                            if left is not None:
                                _, _, ld1, ld2, loff = left
                                for (r, c), v in ga.entries.items():
                                    if c == ix:
                                        row[loff + r * ld2 + iy] = \
                                            (row.get(loff + r * ld2 + iy, 0) + v) \
                                            % ring.characteristic
                            if right is not None:
                                _, _, rd1, rd2, roff = right
                                for (r, c), v in gb.entries.items():
                                    if c == iy:
                                        idx = roff + ix * rd2 + r
                                        row[idx] = (row.get(idx, 0) - v) % ring.characteristic
                            row = {k: v for k, v in row.items() if v}
                            if row:
                                rows.append(row)
        ent = {}
        for i, row in enumerate(rows):
            for j, v in row.items():
                ent[(i, j)] = v
        span = SparseMatrix(fld, len(rows), raw_dim[(s, t)], ent)
        proj[(s, t)], free = quotient_projection(span)
        section[(s, t)] = _inclusion(fld, span.cols, free)

    dims = {k: p.rows for k, p in proj.items() if p.rows}

    def raw_map(key_src, key_tgt, block_fn):
        """Assemble a raw-summand level map then conjugate by proj/section."""
        parts_s = layout.get(key_src, [])
        parts_t = layout.get(key_tgt, [])
        tpos = {(p[0], p[1]): p for p in parts_t}
        ent: Dict[Tuple[int, int], int] = {}
        for (s1, t1, d1, d2, off) in parts_s:
            for tgt_key, mat, side in block_fn(s1, t1, d1, d2):
                tp = tpos.get(tgt_key)
                if tp is None:
                    continue
                _, _, e1, e2, toff = tp
                if side == "left":      # mat acts on the first factor
                    for (r, c), v in mat.entries.items():
                        for iy in range(d2):
                            k = (toff + r * e2 + iy, off + c * d2 + iy)
                            ent[k] = (ent.get(k, 0) + v) % ring.characteristic
                else:                   # mat acts on the second factor
                    for (r, c), v in mat.entries.items():
                        for ix in range(d1):
                            k = (toff + ix * e2 + r, off + ix * d2 + c)
                            ent[k] = (ent.get(k, 0) + v) % ring.characteristic
        ent = {k: v for k, v in ent.items() if v}
        raw = SparseMatrix(fld, sum(p[2] * p[3] for p in parts_t),
                           sum(p[2] * p[3] for p in parts_s), ent)
        if key_tgt not in proj or key_src not in section:
            return SparseMatrix(fld, dims.get(key_tgt, 0), dims.get(key_src, 0))
        return proj[key_tgt] @ raw @ section[key_src]

    diffs: Dict[BiDeg, SparseMatrix] = {}
    actions: Dict[Tuple[int, int, int], SparseMatrix] = {}
    for (s, t) in layout:
        if (s - 1, t) in layout:
            def dblocks(s1, t1, d1, d2, s=s, t=t):
                out = []
                s2, t2 = s - s1, t - t1
                da = a.diff(s1, t1)
                if da.entries:
                    out.append(((s1 - 1, t1), da, "left"))
                db = b.diff(s2, t2)
                if db.entries:
                    sgn = fld.neg(1) if s1 % 2 else 1
                    out.append(((s1, t1), db.scale(sgn) if s1 % 2 else db, "right"))
                return out
            m = raw_map((s, t), (s - 1, t), dblocks)
            if m.entries:
                diffs[(s, t)] = m
        for g, gen in enumerate(ring.generators):
            t2t = t + gen.degree
            if (s, t2t) in layout:
                # act through the second factor; in the quotient this agrees
                # with acting through the first
                def ablocks(s1, t1, d1, d2, g=g, s=s, t=t):
                    gb = b.action(g, s - s1, t - t1)
                    return [((s1, t1), gb, "right")] if gb.entries else []
                m = raw_map((s, t), (s, t2t), ablocks)
                if m.entries:
                    actions[(g, s, t)] = m
    return WindowedComplex(ring, dims, diffs, actions, s_lo, s_hi, t_top, w)



def _rings():
    plane = GradedRing(2, [("x", -1), ("y", -1)], [], name="F2[x,y]")
    weighted = GradedRing(2, [("x", -1), ("y", -2)], [], name="F2[x,y:-2]")
    return [
        GradedRing(2, [("x", -1)], [], name="F2[x]"),
        GradedRing(3, [("x", -2)], [], name="F3[x:-2]"),
        plane.quotient([plane.parse("y^2")], name="F2[x,y]/(y^2)"),
        weighted.quotient([weighted.parse("x^2")], name="F2[x,y:-2]/(x^2)"),
    ]


def _modules(ring):
    x = ring.gen_poly(0)
    return [
        GradedModule.free_module(ring, [0], name="R"),
        GradedModule.free_module(ring, [-1], name="R(-1)"),
        GradedModule.residue_field(ring),
        GradedModule(ring, [("u", 0)], [[ring.poly_mul(x, x)]], name="R/(x^2)"),
        GradedModule(ring, [("a", 0), ("b", -1)], [[x, {}]], name="R/(x)+R(-1)"),
    ]


@pytest.mark.parametrize("ring", _rings(), ids=lambda r: r.name)
def test_torsion_tower_on_j_matches_gamma_r_tensor_j(ring):
    w = Window(-5, 3)
    m = max_ideal(ring)
    weight = _ideal_data(m)[1]
    R = GradedModule.free_module(ring, [0], name="R")
    for J in _modules(ring):
        # the two sides at one common stage, the one gamma builds for J:
        # dual Kos(p^s) (x) R (x) J = dual Kos(p^s) (x) J at every stage s
        gJ = gamma(J, m, w)
        s = gJ.provenance["stage"]
        X = _materialize(R, w, w.t_lo - s * weight - 1)
        model = _koszul_tower("gamma", X, m, w, s, s).stages[-1]
        floor_j = w.t_lo - max(0, model.t_top - w.t_lo) - 1
        Jc = module_complex(J, Window(floor_j, max(w.t_hi, J.top_degree)))
        want = homology(reference_tensor(model, Jc), w)
        assert homology(gJ.model, w) == want, J.name
