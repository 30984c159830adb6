"""The paper's definitions over sympy's sparse polynomial rings: a model of a
pre-Courant algebroid that the evaluators are tested against.

A `Model` reads an algebroid once, through the views any caller has: the
chart's `var_names`, the bundle's `rank`, `metric` and `anchor`, and the
frame table, each section by `coeffs` and each polynomial by `terms`.  It
imports no precourant module and computes with sympy, so it shares neither
code nor data layout with what it checks.  A section is a tuple of ring
elements in the frame u_1..u_r, a vector field a list of them, and a
cochain or form a dict from increasing index tuples to ring elements.
Each map is taken from its definition: the bracket from the two Leibniz
rules, J as three brackets, the skew bracket, T = (1/6) sum over the cyclic
(a, b, c) of <[[a, b]], c>, D f by <D f, e> = rho(e) f, a cochain on
sections by its alternating multilinear extension, the pullback, D psi and
partial phi by their formulas on every increasing frame tuple, a kernel
cochain through its flat <phi(e_1..e_k), e_(k+1)>, and l2 and l3 of the
two-term algebras from brackets: J (Leibniz) or J - D T (Lie).  J-flat is
also read from Roytenberg's structure function, without a bracket.
"""

from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, permutations
from operator import mul

from sympy import QQ, Matrix
from sympy.polys.rings import ring


def _rational(c):
    q = Fraction(c)
    return QQ(q.numerator, q.denominator)


@cache
def _signed_permutations(n):
    """Each permutation of range(n), with its sign from its inversions."""
    return [(p, -1 if sum(a > b for a, b in combinations(p, 2)) % 2 else 1)
            for p in permutations(range(n))]


class Model:
    """The definitions above, for one algebroid's table, metric and anchor."""

    def __init__(self, algebroid):
        b = algebroid.bundle
        self.ring, *self.x = ring(list(b.chart.var_names), QQ)
        self.rank = b.rank
        self.metric = [[_rational(c) for c in row] for row in b.metric]
        inverse = Matrix([[Fraction(c) for c in row] for row in b.metric]).inv()
        self.inverse = [[QQ(int(c.p), int(c.q)) for c in inverse.row(i)] for i in range(b.rank)]
        self.anchor = [[self.poly(a) for a in row] for row in b.anchor]
        self.table = [[self.section(s) for s in row] for row in algebroid.table]
        # one zero for every sum: ring elements are never changed in place
        self.zero = zero = self.ring.zero
        self.zero_section = (zero,) * b.rank
        self.frames = [tuple(self.ring.one if k == i else zero for k in range(b.rank))
                       for i in range(b.rank)]
        self.brackets = {}

    def poly(self, p):
        return self.ring.from_dict({e: _rational(c) for e, c in p.terms.items()})

    def section(self, s):
        return tuple(map(self.poly, s.coeffs))

    def cochain(self, c):
        return {key: self.poly(v) for key, v in c.terms.items()}

    def combine(self, *terms):
        """sum of c * s over the (c, s) pairs, c a ring element or rational."""
        out = list(self.zero_section)
        for c, s in terms:
            for k, v in enumerate(s if c else ()):
                if v:
                    out[k] += c * v
        return tuple(out)

    def rho(self, e):
        return [sum((c * row[m] for c, row in zip(e, self.anchor) if c), self.zero)
                for m in range(len(self.x))]

    def derive(self, v, f):
        """The vector field v applied to f."""
        return sum((c * f.diff(x) for c, x in zip(v, self.x) if c), self.zero)

    def pairing(self, e1, e2):
        return sum((g * a * b for a, row in zip(e1, self.metric) if a
                    for g, b in zip(row, e2) if g and b), self.zero)

    def raise_covector(self, covector):
        """The section s with <s, u_j> = covector[j]."""
        return tuple(sum((g * c for g, c in zip(row, covector) if g and c), self.zero)
                     for row in self.inverse)

    def dee(self, f):
        return self.raise_covector([self.derive(row, f) for row in self.anchor])

    def bracket(self, e1, e2):
        """The right rule e1 o (sum g_j u_j) = sum g_j (e1 o u_j) + (rho(e1) g_j) u_j,
        then the left rule e1 o u_j = (sum f_i u_i) o u_j
        = sum f_i (u_i o u_j) - (rho(u_j) f_i) u_i + <u_i, u_j> D f_i; taken
        once per pair of arguments."""
        out = self.brackets.get((e1, e2))
        if out is not None:
            return out
        rho1, dees, terms = self.rho(e1), {}, []
        for j, g in enumerate(e2):
            if not g:
                continue
            terms.append((self.derive(rho1, g), self.frames[j]))
            for i, f in enumerate(e1):
                if not f:
                    continue
                terms += [(g * f, self.table[i][j]),
                          (-g * self.derive(self.anchor[j], f), self.frames[i])]
                if self.metric[i][j]:
                    df = dees[i] if i in dees else dees.setdefault(i, self.dee(f))
                    terms.append((g * self.metric[i][j], df))
        out = self.brackets[e1, e2] = self.combine(*terms)
        return out

    def jacobiator(self, e1, e2, e3):
        br = self.bracket
        return self.combine((1, br(e1, br(e2, e3))), (-1, br(br(e1, e2), e3)),
                            (-1, br(e2, br(e1, e3))))

    def skew_bracket(self, e1, e2):
        return self.combine((1, self.bracket(e1, e2)),
                            (QQ(-1, 2), self.dee(self.pairing(e1, e2))))

    def t_scalar(self, e1, e2, e3):
        cyclic = ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2))
        return sum((self.pairing(self.skew_bracket(a, b), c) for a, b, c in cyclic),
                   self.zero) * QQ(1, 6)

    def l2(self, flavor, e1, e2):
        return self.bracket(e1, e2) if flavor == "leibniz" else self.skew_bracket(e1, e2)

    def l3(self, flavor, e1, e2, e3):
        j = self.jacobiator(e1, e2, e3)
        if flavor == "leibniz":
            return j
        return self.combine((1, j), (-1, self.dee(self.t_scalar(e1, e2, e3))))

    def evaluate(self, values, vectors):
        """The alternating form with `values` on increasing index tuples, on
        the vectors: the sum over the keys K of values[K] det(v_t[K_r])."""
        total = self.zero
        supports = [{i for i, c in enumerate(v) if c} for v in vectors]
        for key, value in values.items():
            if not all(map(set(key).intersection, supports)):
                continue  # a vector is zero on K, so is the determinant
            for perm, sign in _signed_permutations(len(key)):
                factors = [v[key[r]] for v, r in zip(vectors, perm)]
                if all(factors):
                    total += reduce(mul, factors, value if sign > 0 else -value)
        return total

    def pullback(self, alpha, degree):
        return self._nonzero({key: self.evaluate(alpha, [self.anchor[i] for i in key])
                              for key in combinations(range(self.rank), degree)})

    def cobound_d(self, psi, degree):
        """D psi(e_1..e_{k+1}) = sum_i (-1)^(i+1) rho(e_i) psi(..no i..)
        + sum_(i<j) (-1)^(i+j) psi(e_i o e_j, ..no i, j..), on frames."""
        out, rho = {}, [self.rho(u) for u in self.frames]
        for key in combinations(range(self.rank), degree + 1):
            e = [self.frames[x] for x in key]
            total = self.zero
            for s in range(degree + 1):
                term = self.derive(rho[key[s]], self.evaluate(psi, e[:s] + e[s + 1:]))
                total += -term if s % 2 else term
            for s, t in combinations(range(degree + 1), 2):
                rest = [v for w, v in enumerate(e) if w not in (s, t)]
                term = self.evaluate(psi, [self.bracket(e[s], e[t]), *rest])
                total += -term if (s + t) % 2 else term
            out[key] = total
        return self._nonzero(out)

    def ker_value(self, flat, sections):
        """phi(s_1..s_k) for the kernel cochain phi with this flat: the
        section with <phi(s_1..s_k), u_j> = flat(s_1..s_k, u_j)."""
        return self.raise_covector([self.evaluate(flat, [*sections, u]) for u in self.frames])

    def flat(self, values, degree):
        """The flat <phi(e_1..e_k), e_(k+1)> on increasing frame tuples of the
        kernel cochain phi with these values on increasing k-tuples."""
        return self._nonzero({
            key: self.pairing(values.get(key[:-1], self.zero_section), self.frames[key[-1]])
            for key in combinations(range(self.rank), degree + 1)
        })

    def partial(self, flat, degree):
        """The nonzero partial phi(e_1..e_(k+1)) =
        sum_(i<=k) (-1)^(i+1) e_i o phi(..no i..) + (-1)^(k+1) phi(e_1..e_k) o e_(k+1)
        + sum_(i<j) (-1)^(i+j) phi(e_i o e_j, ..no i, j..), on frames."""
        k, u = degree, self.frames
        values = {key: self.ker_value(flat, [u[x] for x in key])
                  for key in combinations(range(self.rank), k)}
        out = {}
        for key in combinations(range(self.rank), k + 1):
            terms = [((-1) ** s, self.bracket(u[key[s]], values[key[:s] + key[s + 1:]]))
                     for s in range(k)]
            terms.append(((-1) ** (k + 1), self.bracket(values[key[:k]], u[key[k]])))
            for s, t in combinations(range(k + 1), 2):
                rest = [u[x] for v, x in enumerate(key) if v not in (s, t)]
                inner = self.bracket(u[key[s]], u[key[t]])
                terms.append(((-1) ** (s + t), self.ker_value(flat, [inner, *rest])))
            out[key] = self.combine(*terms)
        return {key: s for key, s in out.items() if any(s)}

    def jacobiator_flat(self):
        u = self.frames
        return self.flat({key: self.jacobiator(*(u[i] for i in key))
                          for key in combinations(range(self.rank), 3)}, 3)

    def theta_flat(self):
        """J-flat without a bracket.  In Roytenberg's reading
        (arXiv:math/0203110) the structure is the cubic Theta = rho^i_a xi^a
        p_i - (1/6) c_abc xi^a xi^b xi^c, c_abc = <u_a o u_b, u_c>, with
        {xi^a, xi^b} = g^ab, and the xi^4 part of {Theta, Theta} is a fixed
        multiple of rho_[a c_bcd] - g^ef c_[ab|e| c_cd]f.  With c totally
        skew, as axioms (ii) and (iii) on frames make it, J-flat is A - B on
        an increasing (a, b, c, d): A the alternating sum of rho_a c_bcd and
        B = <t_ab, t_cd> - <t_ac, t_bd> + <t_ad, t_bc> on the table t."""
        t, u = self.table, self.frames

        def c(a, b, d):
            return self.pairing(t[a][b], u[d])

        def value(a, b, e, d):
            rho = [self.derive(self.anchor[x], f) for x, f in
                   ((a, c(b, e, d)), (b, c(a, e, d)), (e, c(a, b, d)), (d, c(a, b, e)))]
            return (rho[0] - rho[1] + rho[2] - rho[3] - self.pairing(t[a][b], t[e][d])
                    + self.pairing(t[a][e], t[b][d]) - self.pairing(t[a][d], t[b][e]))

        return self._nonzero({key: value(*key) for key in combinations(range(self.rank), 4)})

    @staticmethod
    def _nonzero(values):
        return {key: v for key, v in values.items() if v}
