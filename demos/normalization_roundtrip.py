"""Normalization as a round trip.

A FinAb map delta generates a groupoid whose arrows are graph pairs;
normalizing that groupoid hands delta back, up to the canonical
re-indexing iso.  Normalization also commutes with kernels and strong
h-kernels, witnessed by comparisons that are isomorphisms on both
levels.
"""

from groupoid_lab.arrow import (
    graph_comparison,
    h_kernel_preservation_comparison,
    kernel_arr,
    kernel_preservation_comparison,
    normalize,
    strong_h_kernel_arr,
)
from groupoid_lab.base import classify_morphism, morphism_from_function, zmod
from groupoid_lab.groupoid import delooping, functor
from groupoid_lab.holim import kernel_groupoid, strong_h_kernel


def levelwise_iso(square):
    return (classify_morphism(square.f).iso
            and classify_morphism(square.f0).iso)


def main():
    delta = morphism_from_function(zmod(4), zmod(2), lambda x: x % 2)
    comparison = graph_comparison(delta)
    print(f"graph groupoid of Z4 -> Z2: normalization returns delta "
          f"(iso: {levelwise_iso(comparison)})")

    collapse = functor(delooping(zmod(4)), delooping(zmod(2)),
                       lambda x: 0, lambda x: x % 2)
    square = normalize(collapse)
    kernel_cmp = kernel_preservation_comparison(kernel_groupoid(collapse)[1],
                                                square, kernel_arr(square))
    h_kernel_cmp = h_kernel_preservation_comparison(
        strong_h_kernel(collapse), strong_h_kernel_arr(square))
    print(f"kernel comparison iso:          {levelwise_iso(kernel_cmp)}")
    print(f"strong h-kernel comparison iso: {levelwise_iso(h_kernel_cmp)}")
    print(f"h-kernel carrier: {h_kernel_cmp.dom.top.size} kernel arrows "
          f"over {h_kernel_cmp.dom.bottom.size} base elements")


if __name__ == "__main__":
    main()
