import math

import numpy as np
import pytest

from netcode.gf2 import BitMatrix
from netcode.design import network_code

# Sample networks used throughout: the 3-source/4-slot introductory
# network, the 3x6 repetition scheme, the (6,3,3)-based code, its
# punctured (5,3) variant, and the (7,3,4)-based code.

NET34_ROWS = [[1, 0, 1, 1],
              [0, 1, 0, 1],
              [0, 0, 1, 0]]
NET34_V = [1, 2, 3, 2]

REP36_ROWS = [[1, 0, 0, 1, 0, 0],
              [0, 1, 0, 0, 1, 0],
              [0, 0, 1, 0, 0, 1]]
REP36_V = [1, 2, 3, 1, 2, 3]

CODE1_ROWS = [[1, 0, 0, 1, 1, 0],
              [0, 1, 0, 0, 1, 1],
              [0, 0, 1, 1, 0, 1]]
CODE1_V = [1, 2, 3, 1, 2, 3]

CODE2_ROWS = [[1, 0, 0, 1, 1],
              [0, 1, 0, 0, 1],
              [0, 0, 1, 1, 0]]
CODE2_V = [1, 2, 3, 1, 2]

CODE3_ROWS = [[1, 0, 0, 1, 1, 0, 1],
              [0, 1, 0, 0, 1, 1, 1],
              [0, 0, 1, 1, 0, 1, 1]]
CODE3_V = [1, 2, 3, 1, 2, 3, 1]


@pytest.fixture
def net34():
    return network_code(BitMatrix.from_rows(NET34_ROWS), NET34_V)


@pytest.fixture
def rep36():
    return network_code(BitMatrix.from_rows(REP36_ROWS), REP36_V)


@pytest.fixture
def code1():
    return network_code(BitMatrix.from_rows(CODE1_ROWS), CODE1_V)


@pytest.fixture
def code2():
    return network_code(BitMatrix.from_rows(CODE2_ROWS), CODE2_V)


@pytest.fixture
def code3():
    return network_code(BitMatrix.from_rows(CODE3_ROWS), CODE3_V)


def separation_oracle(rows):
    """Exhaustive per-source minimum distance over all 2^k data vectors."""
    k = len(rows)
    n = len(rows[0])
    d = [n] * k
    for u in range(1, 1 << k):
        bits = [(u >> i) & 1 for i in range(k)]
        cw = [sum(bits[i] * rows[i][j] for i in range(k)) % 2 for j in range(n)]
        w = sum(cw)
        for i in range(k):
            if bits[i]:
                d[i] = min(d[i], w)
    return d


def map_oracle(batch, code, noise=1.0):
    """Naive linear-domain double enumeration of Bayes' rule; independent
    of the production log-domain path."""
    k, n = code.k, code.n
    out = np.zeros((len(batch), k))
    for r in range(len(batch)):
        g = batch.g_eff[r].astype(int)
        tot = 0.0
        p1 = np.zeros(k)
        for uu in range(1 << k):
            ub = [(uu >> i) & 1 for i in range(k)]
            for ee in range(1 << n):
                eb = [(ee >> j) & 1 for j in range(n)]
                lik = 1.0
                for j in range(n):
                    c = sum(ub[i] * g[i][j] for i in range(k)) % 2
                    s = 1 - 2 * (c ^ eb[j])
                    diff = batch.y[r, j] - batch.h[r, j] * s
                    lik *= np.exp(-abs(diff) ** 2 / noise) / (np.pi * noise)
                    pe = batch.p_e[r, j]
                    lik *= pe if eb[j] else (1.0 - pe)
                tot += lik
                for i in range(k):
                    if ub[i]:
                        p1[i] += lik
        out[r] = p1 / tot
    return out


def sp_oracle(batch, code, iters=4, noise=1.0):
    """Flooding sum-product per round in plain loops, on the checks of
    batch.g_eff[r] (sources SNC dropped are not connected) and the
    composite slot LLR in its linear-domain closed form; independent of
    the production edge arrays and masks."""
    k, n = code.k, code.n
    out = np.zeros((len(batch), k))
    for r in range(len(batch)):
        g = batch.g_eff[r]
        lam = []
        for j in range(n):
            b = 4.0 * (batch.h[r, j].conjugate() * batch.y[r, j]).real / noise
            p = batch.p_e[r, j]
            lam.append(math.log(((1 - p) * math.exp(b) + p) / ((1 - p) + p * math.exp(b))))
        edges = [(i, j) for j in range(n) for i in range(k) if g[i][j]]
        m_vc = {e: 0.0 for e in edges}
        for _ in range(iters):
            m_cv = {}
            for i, j in edges:
                prod = math.tanh(lam[j] / 2)
                for i2, j2 in edges:
                    if j2 == j and i2 != i:
                        prod *= math.tanh(m_vc[i2, j2] / 2)
                m_cv[i, j] = 2 * math.atanh(prod)
            total = [sum(m for (i, _), m in m_cv.items() if i == s) for s in range(k)]
            m_vc = {(i, j): total[i] - m_cv[i, j] for i, j in edges}
        out[r] = total
    return out
