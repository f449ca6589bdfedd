"""Stage-graph validation and flow-graph construction.

The model builders in :mod:`repro.models` emit stage lists directly, so
"partitioning" here means *validating* that a stage list is executable as a
pipeline (balanced skip stack, unique names, terminal loss) and exposing
its data-flow structure as a ``networkx`` DAG for inspection and tests.
"""

from __future__ import annotations

from repro.models.arch import StageDef, StageGraphModel


def validate_stage_graph(stages: list[StageDef]) -> None:
    """Raise ``ValueError`` for any structural problem in a stage list.

    Checks: non-empty; unique names; exactly one loss stage, last; the
    skip stack is balanced (every push has a matching sum; never pops
    empty); skip-path compute stages only appear while the stack is
    non-empty.
    """
    if not stages:
        raise ValueError("empty stage list")
    names = [s.name for s in stages]
    if len(set(names)) != len(names):
        raise ValueError("duplicate stage names")
    loss_idx = [i for i, s in enumerate(stages) if s.kind == "loss"]
    if loss_idx != [len(stages) - 1]:
        raise ValueError("need exactly one loss stage, in final position")
    depth = 0
    for s in stages:
        if s.kind == "compute":
            if s.channel == -1 and depth == 0:
                raise ValueError(
                    f"stage {s.name!r} operates on an empty skip stack"
                )
            if s.push_skip:
                depth += 1
        elif s.kind == "sum":
            if depth == 0:
                raise ValueError(f"sum stage {s.name!r} pops an empty stack")
            depth -= 1
    if depth != 0:
        raise ValueError(f"{depth} unconsumed skip connections")


def stage_flow_graph(model: StageGraphModel) -> "nx.DiGraph":
    """Data-flow DAG: nodes are stages, edges are payload channels.

    Main-path edges connect consecutive stages; skip edges connect each
    pushing stage to its matching sum stage (and through the skip-path
    compute stage if one rides the connection).
    """
    # imported here: this one function is networkx's only user, and a
    # module-level import would load it into every worker process
    import networkx as nx

    validate_stage_graph(model.stage_defs)
    g = nx.DiGraph()
    stack: list[int] = []  # indices of the stage that pushed each live skip
    prev = None
    for i, st in enumerate(model.stage_defs):
        g.add_node(i, name=st.name, kind=st.kind)
        if prev is not None:
            g.add_edge(prev, i, channel="main")
        if st.kind == "compute":
            if st.push_skip:
                stack.append(i)
            if st.channel == -1:
                # the downsample conv rides the most recent skip edge
                src = stack[-1]
                g.add_edge(src, i, channel="skip")
                stack[-1] = i
        elif st.kind == "sum":
            src = stack.pop()
            g.add_edge(src, i, channel="skip")
        prev = i
    if not nx.is_directed_acyclic_graph(g):  # pragma: no cover - by construction
        raise ValueError("stage flow graph has a cycle")
    return g


def parameter_stage_summary(model: StageGraphModel) -> list[dict]:
    """Per-stage summary rows used by docs/examples."""
    rows = []
    for i, st in enumerate(model.stage_defs):
        n_params = (
            sum(p.size for p in st.module.parameters()) if st.module else 0
        )
        rows.append(
            {
                "stage": i,
                "name": st.name,
                "kind": st.kind,
                "params": n_params,
                "skip": "push" if st.push_skip else (
                    "pop" if st.kind == "sum" else ""
                ),
            }
        )
    return rows
