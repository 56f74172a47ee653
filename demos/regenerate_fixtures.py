#!/usr/bin/env python3
"""Rebuild the benchmark input files under fixtures/.

Every T-mesh and problem file consumed by the CLI and the test suite is
produced here from the builders in splinecomplex.benchmarks, so the
shipped fixtures stay reproducible.
"""

from pathlib import Path

from splinecomplex import benchmarks as bm
from splinecomplex.serialization import dump_json, tmesh_to_dict

OUT = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    OUT.mkdir(exist_ok=True)

    for level in (0, 1, 2, 3):
        dump_json(tmesh_to_dict(bm.square_raw_tmesh(level)), OUT / f"square_tmesh_l{level}.json")
    dump_json(tmesh_to_dict(bm.fig_local_kv_raw()), OUT / "fig_local_kv.json")
    dump_json(tmesh_to_dict(bm.fig_extensions_raw()), OUT / "fig_extensions.json")
    dump_json(tmesh_to_dict(bm.crossing_extensions_raw()), OUT / "crossing_extensions.json")
    dump_json(tmesh_to_dict(bm.two_t_raw()), OUT / "two_t.json")
    for level in (0, 1, 2):
        dump_json(
            tmesh_to_dict(bm.lsection_raw_tmesh(level, 4)), OUT / f"lsection_tmesh_p4_l{level}.json"
        )
        dump_json(
            tmesh_to_dict(bm.cylinder_section_raw_tmesh(level)),
            OUT / f"cylinder_section_l{level}.json",
        )

    dump_json(
        {
            "kind": "solve-eig",
            "formulation": "rotrot2d",
            "degree": 3,
            "level": 0,
            "eigencount": 52,
        },
        OUT / "square_p3.json",
    )
    dump_json(
        {
            "kind": "solve-eig",
            "formulation": "curlcurl3d",
            "degree": 4,
            "level": 0,
            "nz": 2,
            "eigencount": 5,
        },
        OUT / "thickL_p4.json",
    )
    dump_json(
        {
            "kind": "solve-eig",
            "formulation": "laplace2d",
            "degree": 4,
            "level": 2,
            "eigencount": 5,
        },
        OUT / "lsection_p4.json",
    )
    dump_json(
        {
            "kind": "solve-source",
            "degree": 3,
            "level": 1,
        },
        OUT / "cyl_sector_p3.json",
    )
    dump_json(
        {
            "kind": "solve-waveguide",
            "degree": 2,
            "n_section": 3,
            "nz": 2,
            "k": 1.2,
            "length": 1.0,
        },
        OUT / "straight_guide.json",
    )
    dump_json(
        {
            "kind": "convergence",
            "benchmark": "lsection",
            "degree": 4,
            "levels": [0, 1, 2],
        },
        OUT / "lsection_convergence.json",
    )
    print(f"wrote fixtures to {OUT}")


if __name__ == "__main__":
    main()
