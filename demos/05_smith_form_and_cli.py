"""Presentation matrices, the Smith form, and the command-line interface.

Run with:  python3 demos/05_smith_form_and_cli.py
"""

import contextlib
import io
import os
import tempfile

from lieconformal import PolyMatrix, smith_normal_form, torsion_split
from lieconformal.cli import run
from lieconformal.poly import D, MultiPoly
from lieconformal.polymatrix import matmul


def shell(argv):
    """Run the CLI on argv and print its output and exit code, less the
    elapsed: line, whose wall time differs from run to run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    for line in out.getvalue().splitlines():
        if not line.startswith("elapsed: "):
            print(line)
    print(f"(exit {code})")


print("=" * 70)
print("1. Diagonalizing a presentation matrix over d-polynomials")
print("=" * 70)
Mx = PolyMatrix([[D, MultiPoly.one()], [MultiPoly.zero(), D]])
snf = smith_normal_form(Mx)
print("M =", Mx.render())
print("D =", snf.D.render())
print("U =", snf.U.render())
print("V =", snf.V.render())
print("U M V == D:", matmul(matmul(snf.U, Mx), snf.V) == snf.D)
free, torsion = torsion_split(Mx)
print(f"module split: free rank {free}, torsion invariants "
      + ", ".join(p.render() for p in torsion))

print()
print("=" * 70)
print("2. A description file drives the same checks from the shell")
print("=" * 70)
SPEC = """
[algebra]
builtin = block
p = 1
truncation = 8

[module M]
basis = v
action_0 = d + l + 1/3
action_1 = 1
action_2 = 0
action_3 = 0
action_4 = 0
action_5 = 0
action_6 = 0
action_7 = 0
action_8 = 0
"""

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "family.lca")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SPEC)
    print("$ lieconformal check-algebra family.lca")
    shell(["check-algebra", path])
    print()
    print("$ lieconformal snf --matrix 'd,1;0,d'")
    shell(["snf", "--matrix", "d,1;0,d"])
    print()
    print("$ lieconformal scan-a1 --grid 2,5/4 --horizon 8")
    shell(["scan-a1", "--grid", "2,5/4", "--horizon", "8"])
