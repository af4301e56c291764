"""References the tests share: a partition read from its comma-separated
parts, a factor 1 + q^a of a QProduct, the order of the partitions in a
box, which partitions.walk_box must keep and through which the tests
enumerate boxes, and the q-multiplicity as the LGV determinant over Z[q]."""

from skewhowe.exact import QLaurent, QProduct
from skewhowe.multiplicity import (_path_count, lgv_endpoints,
                                   qlaurent_determinant)
from skewhowe.partitions import Partition


def parse_partition(text: str) -> Partition:
    """Comma-separated parts; the empty string is the empty partition."""
    text = text.strip()
    return Partition(tuple(int(p) for p in text.split(","))) if text else Partition()


def power_plus_one(product: QProduct, a: int, e: int = 1) -> QProduct:
    """product times (1 + q^a)^e = ([2a]_q / [a]_q)^e, a >= 0; at a = 0 the
    factor is the constant 2^e, and e < 0 would leave Z[q]."""
    if a < 0 or (a == 0 and e < 0):
        raise ValueError(f"no factor (1 + q^{a})^{e} in Z[q]")
    if a == 0:
        product.const *= 2 ** e
        return product
    return product.q_ints((2 * a,), e).q_ints((a,), -e)


def enumerate_in_box(n: int, k: int):
    """All partitions contained in the n x k box, binomial(n+k, n) of them.

    Each partition comes before its extensions by one more row, and those
    come with the longest new row first; the walk keeps its own stack, so
    any number of rows fits.
    """
    stack = [()]
    while stack:
        parts = stack.pop()
        yield Partition(parts)
        if len(parts) < n:
            stack.extend(parts + (m,) for m in
                         range(1, (parts[-1] if parts else k) + 1))


def lgv_matrix(series: str, lam, n: int, k: int,
               p: int) -> list[list[QLaurent]]:
    """The series' LGV matrix at lam: [q-count of the paths from start i to
    end j], whose determinant is the q-multiplicity of V(lam) (the LGV
    lemma).  The entries are
      A   qbinom(k+i, j + lambda_{n-j}) for i,j = 0..n-1 (p = 0);
      BC  the triangle Catalan q-number at a(i,j) = 2n-i-j+k+p+lambda_j,
          b(i,j) = j-i+k-lambda_j for i,j = n..1 (lgv_endpoints' order);
      D   qbinom(2(k+i)+p, k+i-j-|lambda_{n-j}|) for i,j = 0..n-1."""
    starts, ends = lgv_endpoints(series, lam, n, k, p)
    return [[_path_count(series, start, end) for end in ends]
            for start in starts]


def lgv_determinant(series: str, lam, n: int, k: int, p: int):
    """The series' q-multiplicity of V(lam): the determinant of its LGV
    matrix over Z[q], by Bareiss.  One weight costs O(n^3) products of
    polynomials, and pivoting on the shortest entry starts the BC matrices,
    whose longest entries sit in the last row, from their short first
    rows.  mult prints the product formula instead and checks it against
    this determinant at q = 1; here it is the reference in Z[q]."""
    return qlaurent_determinant(lgv_matrix(series, lam, n, k, p))
