"""The benchmark's span tracer still wraps the functions it names, and leaves stdout alone.

`perfbench/spans.py` patches `ivhs` from outside by attribute name, so a
rename in the package would silently drop a layer from the benchmark's
per-layer numbers (or break `Tracer.install`). The perfbench suite is not
part of the default test run; this test is.
"""

from pathlib import Path

import ivhs
import ivhs.cli

COMMANDS = [
    ["mu", "plane", "--poly", "x^6+y^6+z^6+3/7*x*y^5", "--json"],
    ["jacobian", "--poly", "x^5+y^5+z^5", "--xi", "x^4*y"],
    ["jacobian", "--poly", "x^6+y^6+z^6", "--budget", "200"],
]


def test_traced_commands_print_the_untraced_bytes_and_record_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import spans

    untraced = [ivhs.cli.run_command(argv) for argv in COMMANDS]
    tracer = spans.Tracer(ivhs)
    tracer.install()
    try:
        traced = [ivhs.cli.run_command(argv) for argv in COMMANDS]
        # No command builds an ExactMatrix; its wrapped methods still record a span.
        assert ivhs.linalg.ExactMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert all(code == 0 for code, _ in traced)
    recorded = tracer.take()
    names = {span[0] for span in recorded}
    # mu's kernel is read off the ideal's multiples, and xi's matrices are ranked
    # inside ivhs_matrix and ivhs_max_rank: public functions the tracer wraps.
    assert {"quotient.reduce", "quotient.ideal_relations", "jacobian.ivhs_matrix",
            "jacobian.ivhs_max_rank", "linalg.from_rows", "linalg.rank"} <= names
    # Each quotient span carries its rows x cols (spans.py reads len(ctx.monomials)).
    # The first is the degree-6 piece of mu plane: 1 multiple of the sextic x 28 monomials.
    cells = [span[6] for span in recorded if span[0] == "quotient.quotient_context"]
    assert cells[0] == 28 and all(type(c) is int for c in cells)


def test_uninstall_puts_back_the_methods_the_tracer_patches(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import spans

    classes = [(getattr(getattr(ivhs, module), cls), names)
               for module, cls, names in spans.METHODS]
    originals = [(cls, name, cls.__dict__[name]) for cls, names in classes for name in names]
    assert {(cls.__name__, name) for cls, name, _ in originals} >= {
        ("ExactMatrix", "from_rows"), ("ExactMatrix", "rank"), ("ExactMatrix", "rref"),
        ("ExactMatrix", "kernel_basis"), ("GradedQuotientContext", "reduce")}
    tracer = spans.Tracer(ivhs)
    tracer.install()
    try:
        assert all(cls.__dict__[name] is not raw for cls, name, raw in originals)
    finally:
        tracer.uninstall()
    assert all(cls.__dict__[name] is raw for cls, name, raw in originals)
