#!/usr/bin/env python3
"""Packing-type dichotomy experiment: hex lattice vs degree-8 triangulation.

Packs B(n) maximally for n = 2..8 on both families, prints the root-radius
tables and verdicts, and writes an SVG of a packed patch per family.

Usage: python scripts/run_type_dichotomy.py [output-dir]
"""

import json
import sys
from pathlib import Path

from speiserlab.lattices import triangular_ball
from speiserlab.packing import EUCLIDEAN, pack_disk, packing_to_svg, ratio_trend


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    out_dir.mkdir(parents=True, exist_ok=True)
    ns = [2, 3, 4, 5, 6, 7, 8]
    results = {}
    for name, q in (("hex", 6), ("tri8", 8)):
        report = ratio_trend(lambda n: triangular_ball(q, n), ns)
        results[name] = report.to_dict()
        print(f"{name}: {report.verdict}")
        for n, rho in zip(report.radii_list, report.rho):
            print(f"  n={n}: rho={rho:.6f}")
        packed = pack_disk(triangular_ball(q, 3), boundary=EUCLIDEAN)
        (out_dir / f"packing_{name}.svg").write_text(packing_to_svg(packed))
    (out_dir / "type_dichotomy.json").write_text(
        json.dumps(results, sort_keys=True, indent=2) + "\n"
    )
    print(f"wrote {out_dir}/type_dichotomy.json and two SVGs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
