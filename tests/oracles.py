"""Independent reference implementations used only by the tests.

Everything here is deliberately written from scratch against the defining
formulas, without importing any internals from the package, so that the
library and the oracle cannot share a bug.
"""

import cmath
import itertools

# ---------------------------------------------------------------------------
# Theta function via the alternating sine series
#
#   theta(u|tau) = sum_k (-1)^k q^{(k+1/2)^2} sin((2k+1) pi u)
#                  -----------------------------------------------
#                  pi * sum_k (-1)^k (2k+1) q^{(k+1/2)^2},   q = e^{i pi tau}.
#
# The numerator/denominator normalisation enforces theta'(0) = 1.  The series
# converges only while |Im u| is moderate (the sine factor grows like
# e^{(2k+1) pi |Im u|}), so callers should keep |Im u| small; the library
# itself has no such restriction because it reduces the argument first.
# ---------------------------------------------------------------------------


def theta_series(u, tau, terms=60):
    q = cmath.exp(1j * cmath.pi * tau)
    num = sum((-1) ** k * q ** ((k + 0.5) ** 2) * cmath.sin((2 * k + 1) * cmath.pi * u)
              for k in range(terms))
    den = sum((-1) ** k * (2 * k + 1) * q ** ((k + 0.5) ** 2) for k in range(terms))
    return num / (cmath.pi * den)


# Frozen reference value, cross-checked against the series above and against
# mpmath's jtheta to 22 significant digits.
THETA_QUARTER_TAU_I = 0.22592445084764337


# ---------------------------------------------------------------------------
# Permutation sums over the symmetric group, for tests that symmetrise a
# kernel by hand.  An inversion of sig is a pair of positions l < m whose
# values are out of order; it is reported as the value pair (sig[l], sig[m]).
# ---------------------------------------------------------------------------


def inversions(sig):
    return [(sig[l], sig[m])
            for l, m in itertools.combinations(range(len(sig)), 2)
            if sig[l] > sig[m]]


def perm_sum(n, term):
    """Sum of term(sig) over all n! permutations sig of range(n)."""
    total = 0j
    for sig in itertools.permutations(range(n)):
        total += term(sig)
    return total


# ---------------------------------------------------------------------------
# Brute-force six-vertex DWBC partition function.
#
# Sums over all sign assignments of the interior edges, keeping only those
# that conserve signs at every vertex.  Each edge carries a single sign seen
# identically by both endpoint vertices.  Vertex signs are read as
# (top, right | bottom, left) = (alpha, beta | gamma, delta) with weights
#
#   a    : (+,+|+,+) and (-,-|-,-)      = q z - w / q
#   b    : (+,-|+,-) and (-,+|-,+)      = z - w
#   cbar : (+,-|-,+)                    = (q - 1/q) w
#   c    : (-,+|+,-)                    = (q - 1/q) z
#
# Domain wall boundary: top edges +, bottom edges -, right edges -, left
# edges +.  Columns are numbered i = 1..n right to left (parameter z_i),
# rows j = 1..n bottom to top (parameter w_j).  This oracle is completely
# independent of the package's column state-sum: no shared traversal order,
# no pruning beyond skipping zero-weight vertices.
# ---------------------------------------------------------------------------


def sixv_vertex_weight(alpha, beta, gamma, delta, z, w, q):
    """Weight of a single vertex; zero unless sign-conserving."""
    if alpha + beta != gamma + delta:
        return 0.0
    if alpha == beta:
        return q * z - w / q                       # a (all four equal)
    if alpha == gamma:
        return z - w                               # b / bbar
    if alpha == 1:
        return (q - 1.0 / q) * w                   # cbar: (+,- | -,+)
    return (q - 1.0 / q) * z                       # c:    (-,+ | +,-)


def sixv_bruteforce(z, w, q):
    """DWBC partition function by exhaustive interior-edge search."""
    n = len(z)
    total = 0.0 + 0.0j
    vert_edges = n * (n - 1)   # between row j and j+1 of column i
    horiz_edges = n * (n - 1)  # between column i and i+1 of row j

    def edge_above(v, i, j):
        # sign of the vertical edge above vertex (i, j); top boundary is +1
        if j == n:
            return 1
        return v[(i - 1) * (n - 1) + (j - 1)]

    def edge_left(h, i, j):
        # sign of the horizontal edge left of vertex (i, j); column i + 1 is
        # the left neighbour, the leftmost boundary (i = n) carries +1
        if i == n:
            return 1
        return h[(j - 1) * (n - 1) + (i - 1)]

    for vbits in itertools.product((1, -1), repeat=vert_edges):
        for hbits in itertools.product((1, -1), repeat=horiz_edges):
            weight = 1.0 + 0.0j
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    alpha = edge_above(vbits, i, j)
                    gamma = -1 if j == 1 else edge_above(vbits, i, j - 1)
                    delta = edge_left(hbits, i, j)
                    beta = -1 if i == 1 else edge_left(hbits, i - 1, j)
                    weight *= sixv_vertex_weight(
                        alpha, beta, gamma, delta, z[i - 1], w[j - 1], q)
                    if weight == 0.0:
                        break
                else:
                    continue
                break
            total += weight
    return total
