"""An oracle for Phi's first derivatives outside exactalg: SymPy, which
shares neither exactalg's representation nor its arithmetic.

Each entry of Phi_c at n = 3 and each of its 2n first derivatives in the
field's table, phi.derivative(row, col, idx), is converted to SymPy term by
term over exponent_pairs; SymPy's own diff of the entry, less the table's
derivative, must cancel to zero for all 216 of them.  SymPy is a test
dependency only: nothing in src/agdeform imports it
(test_runtime_imports.py).
"""

import sympy

from agdeform.deform import build_Phi
from agdeform.exactalg import exponent_pairs
from agdeform.model import Chart


def _to_sympy(poly, symbols):
    return sympy.Add(
        *(
            sympy.Rational(coeff)
            * sympy.Mul(*(symbols[idx] ** e for idx, e in exponent_pairs(mono, len(symbols))))
            for mono, coeff in poly.coeffs.items()
        )
    )


def to_sympy(f, symbols):
    """The rational function f as a SymPy expression in symbols, one per
    variable of its table."""
    den = sympy.Mul(*(_to_sympy(factor, symbols) ** e for factor, e in f.den))
    return _to_sympy(f.num, symbols) / den


def test_phi_first_derivatives_match_sympy_at_n3():
    chart = Chart(3)
    phi = build_Phi(chart)
    table = chart.table
    symbols = sympy.symbols(table.names)
    size = 2 * table.n
    checked, nonzero = 0, []
    for row in range(size):
        for col in range(size):
            entry = to_sympy(phi.derivative(row, col), symbols)
            for idx in range(size):
                derived = phi.derivative(row, col, idx)
                difference = sympy.diff(entry, symbols[idx]) - to_sympy(derived, symbols)
                assert sympy.cancel(difference) == 0, (row, col, idx)
                checked += 1
                if not derived.is_zero():
                    nonzero.append((row, col, idx))
    assert checked == 216 and nonzero
    # The oracle tells a wrong derivative apart: a nonzero derivative read
    # under the next variable's name does not cancel.
    row, col, idx = nonzero[0]
    entry = to_sympy(phi.derivative(row, col), symbols)
    wrong = to_sympy(phi.derivative(row, col, idx), symbols)
    assert sympy.cancel(sympy.diff(entry, symbols[idx + 1]) - wrong) != 0
