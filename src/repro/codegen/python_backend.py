"""Code generator for the pure functional model.

Emits one Python module per UML model: enumerations, classes with
inheritance, attributes initialized from type-derived defaults, and
operations whose bodies come from the ``<<PythonBody>>`` stereotype
(``body`` tagged value).  Operations without a body raise
``NotImplementedError`` — the generator never invents behaviour.

The output contains **no concern logic whatsoever**: distribution,
transactions and security arrive later, as generated aspects woven over
these classes (the paper's split between the functional code generator and
the aspect generators).
"""

from __future__ import annotations

import keyword
import types as _types
from typing import List

from repro.errors import CodegenError
from repro.metamodel.instances import MObject
from repro.uml.metamodel import UML
from repro.uml.model import classes_of, owned_elements
from repro.uml.profiles import get_tag, has_stereotype
from repro.codegen.emitter import CodeWriter

#: UML primitive name → Python default-value literal
_DEFAULTS = {
    "String": '""',
    "Integer": "0",
    "Real": "0.0",
    "Boolean": "False",
}


def _check_identifier(name: str, what: str) -> str:
    if not name.isidentifier() or keyword.iskeyword(name):
        raise CodegenError(f"{what} {name!r} is not a valid Python identifier")
    return name


def _attribute_default(attribute: MObject) -> str:
    if attribute.upper != 1:
        return "[]"
    default = attribute.defaultValue
    if default:
        return default
    type_el = attribute.type
    if type_el is None:
        return "None"
    if type_el.isinstance_of(UML.Enumeration):
        literals = list(type_el.literals)
        return f"{type_el.name}.{literals[0].name}" if literals else "None"
    return _DEFAULTS.get(type_el.name, "None")


def _topo_classes(model: MObject) -> List[MObject]:
    """Classes sorted so every superclass precedes its subclasses."""
    classes = list(classes_of(model))
    placed: List[MObject] = []
    placed_ids = set()
    remaining = list(classes)
    while remaining:
        progressed = False
        for cls in list(remaining):
            local_supers = [s for s in cls.superclasses if any(s is c for c in classes)]
            if all(id(s) in placed_ids for s in local_supers):
                placed.append(cls)
                placed_ids.add(id(cls))
                remaining.remove(cls)
                progressed = True
        if not progressed:
            names = [c.name for c in remaining]
            raise CodegenError(f"inheritance cycle among classes {names}")
    return placed


def _emit_enumeration(writer: CodeWriter, enum_el: MObject) -> None:
    with writer.block(f"class {_check_identifier(enum_el.name, 'enumeration')}(enum.Enum):"):
        doc = enum_el.documentation
        if doc:
            writer.line(f'"""{doc}"""')
        literals = list(enum_el.literals)
        if not literals:
            writer.line("pass")
        for literal in literals:
            lit = _check_identifier(literal.name, "enum literal")
            writer.line(f'{lit} = "{lit}"')
    writer.line()
    writer.line()


def _operation_signature(operation: MObject) -> str:
    names = ["self"]
    for parameter in operation.parameters:
        if parameter.direction == "return":
            continue
        pname = _check_identifier(parameter.name, "parameter")
        default = parameter.defaultValue
        names.append(f"{pname}={default}" if default else pname)
    return ", ".join(names)


def _emit_operation(writer: CodeWriter, cls: MObject, operation: MObject) -> None:
    op_name = _check_identifier(operation.name, "operation")
    with writer.block(f"def {op_name}({_operation_signature(operation)}):"):
        doc = operation.documentation
        if doc:
            writer.line(f'"""{doc}"""')
        body = get_tag(operation, "PythonBody", "body")
        if operation.isAbstract:
            writer.line(
                f'raise NotImplementedError("{cls.name}.{op_name} is abstract")'
            )
        elif body:
            writer.lines(str(body))
        else:
            writer.line(
                f'raise NotImplementedError("no <<PythonBody>> for {cls.name}.{op_name}")'
            )
    writer.line()


def _emit_class(writer: CodeWriter, cls: MObject) -> None:
    name = _check_identifier(cls.name, "class")
    bases = ", ".join(_check_identifier(s.name, "superclass") for s in cls.superclasses)
    header = f"class {name}({bases}):" if bases else f"class {name}:"
    with writer.block(header):
        doc = cls.documentation or f"Generated from UML class {cls.name}."
        writer.line(f'"""{doc}"""')
        writer.line()
        attributes = list(cls.attributes)
        with writer.block("def __init__(self, **kwargs):"):
            if cls.superclasses:
                writer.line("super().__init__(**kwargs)")
            for attribute in attributes:
                aname = _check_identifier(attribute.name, "attribute")
                writer.line(
                    f'self.{aname} = kwargs.get("{aname}", {_attribute_default(attribute)})'
                )
            if not attributes and not cls.superclasses:
                writer.line("del kwargs  # no attributes declared")
        writer.line()
        for operation in cls.operations:
            _emit_operation(writer, cls, operation)
    writer.line()


def generate_module(model: MObject) -> str:
    """Generate the functional module's source for a UML ``Model``."""
    if not model.isinstance_of(UML.Package):
        raise CodegenError("code generation needs a UML Model/Package root")
    writer = CodeWriter()
    writer.line('"""Functional code generated from UML model '
                f"{model.name!r} by repro.codegen (S9)." + '"""')
    writer.line()
    writer.line("import enum")
    writer.line()
    writer.line()
    enums = [
        el for el in owned_elements(model) if el.isinstance_of(UML.Enumeration)
    ]
    for enum_el in enums:
        _emit_enumeration(writer, enum_el)
    for cls in _topo_classes(model):
        if has_stereotype(cls, "Generated"):
            # infrastructure classes added by transformations are realized by
            # the middleware substrate, not by the functional generator
            continue
        _emit_class(writer, cls)
    return writer.render()


def compile_model(model: MObject, module_name: str = "generated_app"):
    """Generate and execute the functional module; returns the module object."""
    return load_module(generate_module(model), module_name)


def load_module(source: str, module_name: str = "generated_app"):
    """Execute generated functional source into a fresh module object, so
    every load defines its own classes."""
    module = _types.ModuleType(module_name)
    module.__dict__["__source__"] = source
    try:
        exec(compile(source, f"<generated {module_name}>", "exec"), module.__dict__)
    except SyntaxError as exc:
        raise CodegenError(f"generated module does not compile: {exc}") from exc
    return module
