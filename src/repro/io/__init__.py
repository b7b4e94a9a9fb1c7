"""Persistence: XML and JSON interchange for specifications and executions.

The paper's experimental setup stores all workflow data in XML files
(Section 7.1); this package provides that interchange plus a JSON
equivalent and a binary label store:

* :mod:`repro.io.xmlio`  -- specifications and execution logs as XML;
* :mod:`repro.io.jsonio` -- the same documents as JSON;
* :mod:`repro.io.labelstore` -- persisted label maps using the compact
  binary codec of :mod:`repro.labeling.serialize`.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".jsonio": (
        "execution_from_json", "execution_to_json", "insertion_from_json",
        "insertion_to_json", "load_execution_json", "load_specification_json",
        "save_execution_json", "save_specification_json",
        "specification_from_json", "specification_to_json",
    ),
    ".labelstore": ("load_label_store", "load_labels", "save_labels"),
    ".xmlio": (
        "execution_from_xml", "execution_to_xml", "load_execution_xml",
        "load_specification_xml", "save_execution_xml",
        "save_specification_xml", "specification_from_xml",
        "specification_to_xml",
    ),
})

__all__ = [
    "specification_to_xml",
    "specification_from_xml",
    "save_specification_xml",
    "load_specification_xml",
    "execution_to_xml",
    "execution_from_xml",
    "save_execution_xml",
    "load_execution_xml",
    "specification_to_json",
    "specification_from_json",
    "save_specification_json",
    "load_specification_json",
    "execution_to_json",
    "execution_from_json",
    "insertion_to_json",
    "insertion_from_json",
    "save_execution_json",
    "load_execution_json",
    "save_labels",
    "load_labels",
    "load_label_store",
]
