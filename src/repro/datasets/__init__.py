"""Workflow specifications used by tests, examples and benchmarks.

* :mod:`repro.datasets.examples` -- the paper's pedagogical grammars: the
  running example (Figure 2), the Theorem 1 lower-bound grammar
  (Figure 6) and the series-recursive path grammar (Figure 12).
* :mod:`repro.datasets.bioaid` -- a BioAID-like real-life specification
  with the statistics the paper reports for the myExperiment BioAID
  workflow (see DESIGN.md section 3 for the substitution rationale).
* :mod:`repro.datasets.synthetic` -- the parameterized synthetic family
  of Figure 13 (sub-workflow size, nesting depth, linear vs nonlinear
  recursion).
"""

from pathlib import Path
from typing import Callable, Dict, Union

from repro.errors import ServiceError
from repro.workflow.specification import Specification
from repro.datasets.examples import (
    fig12_path_grammar,
    running_example,
    theorem1_grammar,
)
from repro.datasets.bioaid import bioaid
from repro.datasets.synthetic import synthetic_spec

# Named specification factories usable anywhere a spec argument is
# accepted (CLI spec arguments, service ``create_session`` requests).
_BUILTIN_SPECS: Dict[str, Callable] = {
    "running-example": running_example,
    "theorem1": theorem1_grammar,
    "fig12-path": fig12_path_grammar,
    "bioaid": bioaid,
    "bioaid-norec": lambda: bioaid(recursive=False),
    "synthetic": synthetic_spec,
}


def builtin_spec_names():
    """Names accepted by :func:`spec_by_name`, sorted."""
    return sorted(_BUILTIN_SPECS)


def spec_by_name(name: str):
    """Instantiate a bundled specification by its registry name.

    Raises :class:`KeyError` for unknown names; callers decide how to
    surface that (the CLI exits, the service maps it to an error reply).
    """
    try:
        factory = _BUILTIN_SPECS[name]
    except KeyError:
        raise KeyError(
            f"unknown builtin spec {name!r}; expected one of "
            f"{builtin_spec_names()}"
        ) from None
    return factory()


def resolve_spec(spec: Union[Specification, str]) -> Specification:
    """Turn a spec argument into a :class:`Specification`.

    Accepts an already-built specification, the name of a bundled
    dataset (``bioaid``, ``running-example``, ``synthetic``, ...) or a
    path to a ``.json`` / ``.xml`` spec file; anything else raises
    :class:`~repro.errors.ServiceError`.
    """
    if isinstance(spec, Specification):
        return spec
    try:
        return spec_by_name(spec)
    except KeyError:
        pass
    path = Path(spec)
    if not path.exists():
        raise ServiceError(
            f"spec {spec!r} is neither a file nor one of "
            f"{builtin_spec_names()}"
        )
    if path.suffix == ".xml":
        from repro.io import load_specification_xml

        return load_specification_xml(path)
    from repro.io import load_specification_json

    return load_specification_json(path)


__all__ = [
    "running_example",
    "theorem1_grammar",
    "fig12_path_grammar",
    "bioaid",
    "synthetic_spec",
    "builtin_spec_names",
    "spec_by_name",
    "resolve_spec",
]
