"""XMI writer: ModelResource → XML document.

Serialization rules
-------------------
* Every object becomes an element whose tag is its metaclass qualified name
  with ``.`` separators (``uml.Class``) and which carries ``xmi.id``.
* Single-valued primitive features become XML attributes; many-valued
  primitive features become ``<feature>`` child elements carrying
  ``xmi.value``.
* Containment references become a ``<feature>`` wrapper child holding the
  serialized children.
* Non-containment references become an ``xmi.idref``-list attribute.
* For each bidirectional pair only one side is written (the containment
  side if any, otherwise the lexicographically smaller ``class.feature``
  key); the reader rebuilds the other side.
* ``Any``-typed attribute values are encoded with a type marker prefix
  (``int:3``, ``bool:true``, ``str:hello`` ...) so they round-trip.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import IO, Union

from repro.errors import XmiWriteError
from repro.metamodel.instances import MList, MObject, ModelResource
from repro.metamodel.kernel import MetaAttribute, MetaReference

XMI_VERSION = "1.2"


def encode_any(value) -> str:
    """Encode a primitive value with a type marker for ``Any``-typed slots."""
    if isinstance(value, bool):
        return f"bool:{'true' if value else 'false'}"
    if isinstance(value, int):
        return f"int:{value}"
    if isinstance(value, float):
        return f"real:{value!r}"
    if isinstance(value, str):
        return f"str:{value}"
    raise XmiWriteError(
        f"cannot serialize value {value!r} of type {type(value).__name__}; "
        "only str/int/float/bool are XMI-serializable"
    )


def _encode_plain(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _should_write_reference(ref: MetaReference) -> bool:
    """Pick exactly one side of each bidirectional pair (see module docs)."""
    opposite = ref.opposite
    if opposite is None:
        return True
    if ref.containment:
        return True
    if opposite.containment:
        return False
    self_key = (ref.owning_class.qualified_name, ref.name)
    opp_key = (opposite.owning_class.qualified_name, opposite.name)
    return self_key <= opp_key


def _serialize_object(obj: MObject, parent: ET.Element) -> ET.Element:
    tag = obj.meta_class.qualified_name
    element = ET.SubElement(parent, tag, {"xmi.id": obj.uuid})
    for feature in obj.meta_class._shape().features.values():
        value = obj._slots.get(feature.name)
        if value is None or (isinstance(value, MList) and not value):
            continue
        if isinstance(feature, MetaAttribute):
            _serialize_attribute(element, feature, value)
        elif isinstance(feature, MetaReference):
            if not _should_write_reference(feature):
                continue
            if feature.containment:
                wrapper = ET.SubElement(element, feature.name)
                children = value if feature.many else [value]
                for child in children:
                    _serialize_object(child, wrapper)
            else:
                targets = value if feature.many else [value]
                element.set(feature.name, " ".join(t.uuid for t in targets))
    return element


def _serialize_attribute(element: ET.Element, feature: MetaAttribute, value) -> None:
    is_any = feature.type.name == "Any"
    encode = encode_any if is_any else _encode_plain
    if feature.many:
        for item in value:
            ET.SubElement(element, feature.name, {"xmi.value": encode(item)})
    else:
        element.set(feature.name, encode(value))


def build_tree(resource: ModelResource) -> ET.ElementTree:
    """Build the XMI element tree for ``resource``: a
    :class:`ModelResource`, or anything with its ``name`` and ``roots``
    (such as a shipped package's model snapshot)."""
    root = ET.Element("XMI", {"xmi.version": XMI_VERSION})
    header = ET.SubElement(root, "XMI.header")
    documentation = ET.SubElement(header, "XMI.documentation")
    exporter = ET.SubElement(documentation, "XMI.exporter")
    exporter.text = "repro"
    model_name = ET.SubElement(documentation, "XMI.exporterVersion")
    model_name.text = "0.1.0"
    content = ET.SubElement(root, "XMI.content", {"name": resource.name})
    for obj in resource.roots:
        _serialize_object(obj, content)
    return ET.ElementTree(root)


def xmi_string(resource: ModelResource) -> str:
    """Serialize ``resource`` to an XMI document string."""
    tree = build_tree(resource)
    ET.indent(tree, space="  ")
    return ET.tostring(tree.getroot(), encoding="unicode", xml_declaration=True)


def write_xmi(resource: ModelResource, target: Union[str, IO]) -> None:
    """Serialize ``resource`` to a file path or writable text stream."""
    text = xmi_string(resource)
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        target.write(text)
