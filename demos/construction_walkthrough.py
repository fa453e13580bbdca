"""Watch the constructive decomposition work on a bigger tree.

Builds a 30-vertex twin-free tree (a gadget cycle with one ring edge
removed), runs the bound-certified constructor, and prints the trace:
which decomposition case fired at each step and what it contributed.
"""

from iocodes import (
    Graph,
    check_bound,
    construct_tree_code,
    gen_subcubic_gp,
    is_io_code,
    solve,
)


def main():
    ring, spec = gen_subcubic_gp(5)
    u = spec.distinguished["cycle"]
    ring_edge = (u[0], u[-1])
    tree = Graph(ring.n, [e for e in ring.edges() if e != ring_edge])
    print(f"input: tree on n={tree.n} vertices, max degree 3\n")

    code, trace = construct_tree_code(tree, 3)
    print(f"constructed code of size {len(code)}: {sorted(code)}")
    print(f"verifies: {is_io_code(tree, code).ok}")
    print(f"bound:    {check_bound(tree.n, len(code), 3).value} "
          f"(6*{len(code)} = {6 * len(code)} vs 5*{tree.n} = {5 * tree.n})")
    print(f"optimal:  {solve(tree).gamma} (the constructor is not required to match it,\n"
          f"          but this instance is extremal, so it must and does)\n")

    print("trace:")
    for step in trace.steps:
        detail = ", ".join(f"{k}={v}" for k, v in step.detail.items())
        print(f"  {step.case:24s} {detail}")
        if step.contributed:
            print(f"  {'':24s} contributed {list(step.contributed)}")


if __name__ == "__main__":
    main()
