"""AST scan: turn Python sources into a lock-aware intermediate form.

The scanner finds every lock a class owns, how functions acquire them,
which fields are declared ``guarded_by`` a lock, and how calls thread
locks through helpers.  It is deliberately syntactic — no imports are
executed — and recognizes the project's conventions:

* ``self._x = threading.Lock() / RLock() / Condition()`` declares an
  *anonymous* lock attribute, canonically named ``module.Class._x``;
* ``self._x = named_lock("layer.name")`` (and ``named_rlock`` /
  ``named_condition``, from :mod:`repro.analysis.witness`) declares a
  *named* lock — the name is its identity in the hierarchy;
* ``threading.Condition(self._mutex)`` / ``named_condition(n, lock=…)``
  aliases the condition to the mutex it wraps (one region, two handles);
* ``self._locks.setdefault(key, named_rlock("family"))`` marks
  ``self._locks`` as a *lock family* attribute — every value it yields
  (via ``get``/``setdefault``/subscript) is one lock class in the graph;
* a ``# guarded_by: _lock`` comment on a field's assignment line (or a
  class-level ``GUARDED_BY = {"_field": "_lock"}`` map) declares that
  the field may only be **mutated** while ``self._lock`` is held;
* ``lock.acquire(blocking=…)`` with anything but a literal ``True`` is
  a *try-acquire*: it cannot wait, so it cannot close a deadlock cycle.

Receivers are typed through ordinary annotations — ``self.federation:
"Federation" = federation``, annotated ``__init__`` parameters, ``->
Node`` return annotations, and ``Dict[str, Node]`` value types — so the
interprocedural pass can follow ``self.federation.naming.swap(…)``
chains without executing anything.  ``Union[Node, RemoteNode]`` types a
receiver as every member, so a call follows each class's method.

Limitations (documented in docs/CONCURRENCY.md): nested ``def`` bodies
are not walked (lambdas are), and a context manager that holds a lock
across its ``yield`` must be expressed as ``with lock:`` at the call
site to be seen as a region.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

_LOCK_FACTORIES = {
    "Lock": ("lock", False),
    "RLock": ("rlock", True),
    "Condition": ("condition", True),
}
_NAMED_FACTORIES = {
    "named_lock": ("lock", False),
    "named_rlock": ("rlock", True),
    "named_condition": ("condition", True),
}
#: method names that mutate their receiver in place
_MUTATORS = {
    "append", "appendleft", "extend", "insert", "add", "update",
    "setdefault", "pop", "popleft", "popitem", "remove", "discard",
    "clear", "sort", "reverse",
}
_GUARDED_RE = re.compile(r"#\s*guarded_by:\s*([A-Za-z_][A-Za-z0-9_]*)")


# ---------------------------------------------------------------------------
# the intermediate form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LockDecl:
    """One lock attribute of one class."""

    lock_id: str
    kind: str            # "lock" | "rlock" | "condition"
    reentrant: bool
    module: str
    cls: str
    attr: str
    lineno: int


# A LockSpec is how IR refers to a lock before interprocedural
# resolution: ("attr", name) for self.<name>, ("param", name),
# ("concrete", lock_id), or ("call", CallSpec) for
# `with self._helper(key):`.
LockSpec = Tuple


@dataclass(frozen=True)
class CallSpec:
    """One call site's callee shape, resolved later against the index.

    ``kind`` selects how the receiver is found: ``"self"`` (a method of
    the enclosing class), ``"selfpath"`` (follow ``path`` through typed
    attributes starting at self), ``"localpath"`` (start from a local
    variable with candidate ``types``), ``"clsname"`` (explicit class
    receiver), or ``"func"`` (module-level function).
    """

    kind: str
    name: str
    path: Tuple[str, ...] = ()
    types: Tuple[str, ...] = ()


@dataclass
class Op:
    lineno: int


@dataclass
class Region(Op):
    lock: LockSpec = None
    trylock: bool = False
    body: List[Op] = field(default_factory=list)


@dataclass
class Acquire(Op):
    lock: LockSpec = None
    trylock: bool = False


@dataclass
class Release(Op):
    lock: LockSpec = None


@dataclass
class Call(Op):
    spec: CallSpec = None
    #: positional index -> LockSpec for arguments that are locks
    pos_locks: Dict[int, LockSpec] = field(default_factory=dict)
    #: keyword name -> LockSpec
    kw_locks: Dict[str, LockSpec] = field(default_factory=dict)


@dataclass
class Mutate(Op):
    attr: str = ""
    desc: str = ""


@dataclass
class FuncInfo:
    module: str
    cls: Optional[str]
    name: str
    params: List[str] = field(default_factory=list)
    ops: List[Op] = field(default_factory=list)
    #: lock specs appearing in `return <lock>` statements
    returns: List[LockSpec] = field(default_factory=list)
    #: candidate return type names (from `-> Node` annotations)
    return_types: Tuple[str, ...] = ()
    lineno: int = 0
    path: str = ""

    @property
    def qualname(self) -> str:
        if self.cls:
            return f"{self.module}.{self.cls}.{self.name}"
        return f"{self.module}.{self.name}"


@dataclass
class ClassInfo:
    module: str
    name: str
    bases: List[str] = field(default_factory=list)      # local names
    lock_attrs: Dict[str, LockDecl] = field(default_factory=dict)
    alias_attrs: Dict[str, str] = field(default_factory=dict)
    family_attrs: Dict[str, str] = field(default_factory=dict)
    #: attribute -> candidate class local names (from assignments and
    #: annotations)
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    #: attribute -> value types of a Dict[...] container attribute
    attr_value_types: Dict[str, Set[str]] = field(default_factory=dict)
    guards: Dict[str, str] = field(default_factory=dict)
    methods: Dict[str, FuncInfo] = field(default_factory=dict)
    lineno: int = 0

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"


@dataclass
class ModuleInfo:
    module: str
    path: str
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FuncInfo] = field(default_factory=dict)
    imports: Dict[str, str] = field(default_factory=dict)
    #: (class local name or None, method name) referenced as callbacks
    callback_refs: Set[Tuple[Optional[str], str]] = field(default_factory=set)


@dataclass
class Index:
    """Everything the interprocedural pass needs, keyed for lookup."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)
    #: class qualname -> ClassInfo
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: lock id -> representative LockDecl (first wins; named locks share)
    locks: Dict[str, LockDecl] = field(default_factory=dict)

    def resolve_class(self, module: str, local_name: str) -> Optional[ClassInfo]:
        info = self.modules.get(module)
        if info is not None:
            if local_name in info.classes:
                return info.classes[local_name]
            target = info.imports.get(local_name)
            if target is not None and target in self.classes:
                return self.classes[target]
        # unqualified fallback: unique class of that name anywhere
        candidates = [
            cls for cls in self.classes.values() if cls.name == local_name
        ]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """The class plus its analyzable bases, breadth-first."""
        seen = [cls]
        queue = list(cls.bases)
        visited = {cls.qualname}
        while queue:
            base_name = queue.pop(0)
            base = self.resolve_class(cls.module, base_name)
            if base is None or base.qualname in visited:
                continue
            visited.add(base.qualname)
            seen.append(base)
            queue.extend(base.bases)
        return seen

    def lookup_method(self, cls: ClassInfo, name: str) -> Optional[FuncInfo]:
        for klass in self.mro(cls):
            if name in klass.methods:
                return klass.methods[name]
        return None

    def lookup_lock_attr(self, cls: ClassInfo, attr: str) -> Optional[LockDecl]:
        for klass in self.mro(cls):
            seen: Set[str] = set()
            name = attr
            while name in klass.alias_attrs and name not in seen:
                seen.add(name)
                name = klass.alias_attrs[name]
            if name in klass.lock_attrs:
                return klass.lock_attrs[name]
        return None

    def lookup_family(self, cls: ClassInfo, attr: str) -> Optional[str]:
        for klass in self.mro(cls):
            if attr in klass.family_attrs:
                return klass.family_attrs[attr]
        return None

    def lookup_guard(self, cls: ClassInfo, attr: str) -> Optional[Tuple[str, ClassInfo]]:
        for klass in self.mro(cls):
            if attr in klass.guards:
                return klass.guards[attr], klass
        return None

    def lookup_attr_types(self, cls: ClassInfo, attr: str) -> List[ClassInfo]:
        found: Dict[str, ClassInfo] = {}
        for klass in self.mro(cls):
            for local in klass.attr_types.get(attr, ()):
                resolved = self.resolve_class(klass.module, local)
                if resolved is not None:
                    found[resolved.qualname] = resolved
        return list(found.values())

    def lookup_attr_value_types(self, cls: ClassInfo, attr: str) -> List[ClassInfo]:
        found: Dict[str, ClassInfo] = {}
        for klass in self.mro(cls):
            for local in klass.attr_value_types.get(attr, ()):
                resolved = self.resolve_class(klass.module, local)
                if resolved is not None:
                    found[resolved.qualname] = resolved
        return list(found.values())


# ---------------------------------------------------------------------------
# small AST helpers
# ---------------------------------------------------------------------------


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _is_threading_factory(node: ast.Call) -> Optional[Tuple[str, bool]]:
    """(kind, reentrant) when the call creates a stdlib lock primitive."""
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "threading" and func.attr in _LOCK_FACTORIES:
            return _LOCK_FACTORIES[func.attr]
    return None


def _is_named_factory(node: ast.Call) -> Optional[Tuple[str, bool, Optional[str]]]:
    """(kind, reentrant, literal name) for named_lock/rlock/condition."""
    name = _call_name(node)
    if name not in _NAMED_FACTORIES:
        return None
    kind, reentrant = _NAMED_FACTORIES[name]
    literal = None
    if node.args and isinstance(node.args[0], ast.Constant):
        if isinstance(node.args[0].value, str):
            literal = node.args[0].value
    return kind, reentrant, literal


def _condition_wrapped_lock(node: ast.Call) -> Optional[ast.expr]:
    """The lock expression a Condition was built over, if any."""
    named = _is_named_factory(node)
    if named is not None and named[0] == "condition":
        for kw in node.keywords:
            if kw.arg == "lock":
                return kw.value
        if len(node.args) > 1:
            return node.args[1]
        return None
    stdlib = _is_threading_factory(node)
    if stdlib is not None and stdlib[0] == "condition" and node.args:
        return node.args[0]
    return None


def _self_attr(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _type_names(annotation: Optional[ast.expr]) -> Tuple[str, ...]:
    """Candidate class names from a simple annotation expression."""
    if annotation is None:
        return ()
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        name = annotation.value.strip().strip("'\"")
        return (name,) if name.isidentifier() else ()
    if isinstance(annotation, ast.Name):
        return (annotation.id,)
    if isinstance(annotation, ast.Attribute):
        return (annotation.attr,)
    if isinstance(annotation, ast.Subscript):
        base = annotation.value
        base_name = (
            base.id if isinstance(base, ast.Name)
            else base.attr if isinstance(base, ast.Attribute) else None
        )
        if base_name == "Optional":
            return _type_names(annotation.slice)
        if base_name == "Union" and isinstance(annotation.slice, ast.Tuple):
            return tuple(
                name for member in annotation.slice.elts
                for name in _type_names(member)
            )
        return ()
    return ()


def _dict_value_types(annotation: Optional[ast.expr]) -> Tuple[str, ...]:
    """Value-type names from a ``Dict[k, V]`` annotation."""
    if not isinstance(annotation, ast.Subscript):
        return ()
    base = annotation.value
    base_name = (
        base.id if isinstance(base, ast.Name)
        else base.attr if isinstance(base, ast.Attribute) else None
    )
    if base_name not in ("Dict", "dict"):
        return ()
    if isinstance(annotation.slice, ast.Tuple) and len(annotation.slice.elts) == 2:
        return _type_names(annotation.slice.elts[1])
    return ()


def _looks_like_class(name: Optional[str]) -> bool:
    return bool(name) and name.lstrip("_")[:1].isupper()


# ---------------------------------------------------------------------------
# scanning one module
# ---------------------------------------------------------------------------


class _ModuleScanner:
    def __init__(self, module: str, path: Path, source: str):
        self.info = ModuleInfo(module=module, path=str(path))
        self.source_lines = source.splitlines()
        self.tree = ast.parse(source)

    def scan(self) -> ModuleInfo:
        for node in self.tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._scan_import(node)
            elif isinstance(node, ast.ClassDef):
                self._scan_class(node)
            elif isinstance(node, ast.FunctionDef):
                self.info.functions[node.name] = self._scan_function(node, None)
        return self.info

    def _scan_import(self, node) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                self.info.imports[local] = alias.name
        else:
            if node.module is None or node.level:
                return
            for alias in node.names:
                local = alias.asname or alias.name
                self.info.imports[local] = f"{node.module}.{alias.name}"

    # -- classes -------------------------------------------------------------

    def _scan_class(self, node: ast.ClassDef) -> None:
        cls = ClassInfo(module=self.info.module, name=node.name, lineno=node.lineno)
        for base in node.bases:
            if isinstance(base, ast.Name):
                cls.bases.append(base.id)
            elif isinstance(base, ast.Attribute):
                cls.bases.append(base.attr)
        self.info.classes[node.name] = cls
        methods = []
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                methods.append(item)
            elif isinstance(item, ast.Assign):
                self._scan_guard_map(cls, item)
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                self._note_types(cls, item.target.id, item.annotation)
        # pass A: declarations (locks, aliases, families, guards, types)
        for method in methods:
            param_types = {
                arg.arg: _type_names(arg.annotation)
                for arg in method.args.posonlyargs
                + method.args.args
                + method.args.kwonlyargs
                if arg.annotation is not None
            }
            for sub in ast.walk(method):
                if isinstance(sub, ast.Assign):
                    self._scan_attr_assign(cls, sub, param_types)
                elif isinstance(sub, ast.AnnAssign):
                    attr = _self_attr(sub.target)
                    if attr is not None:
                        self._note_types(cls, attr, sub.annotation)
                        guard = self._guard_comment(sub.lineno)
                        if guard is not None and attr not in cls.guards:
                            cls.guards[attr] = guard
                elif isinstance(sub, ast.Call):
                    self._scan_family_call(cls, sub)
        # pass B: behaviour
        for method in methods:
            cls.methods[method.name] = self._scan_function(method, cls)

    def _note_types(self, cls: ClassInfo, attr: str, annotation) -> None:
        for name in _type_names(annotation):
            if _looks_like_class(name):
                cls.attr_types.setdefault(attr, set()).add(name)
        for name in _dict_value_types(annotation):
            if _looks_like_class(name):
                cls.attr_value_types.setdefault(attr, set()).add(name)

    def _scan_guard_map(self, cls: ClassInfo, node: ast.Assign) -> None:
        """Class-level ``GUARDED_BY = {"_field": "_lock"}`` maps."""
        for target in node.targets:
            if isinstance(target, ast.Name) and target.id == "GUARDED_BY":
                if isinstance(node.value, ast.Dict):
                    for key, value in zip(node.value.keys, node.value.values):
                        if (
                            isinstance(key, ast.Constant)
                            and isinstance(key.value, str)
                            and isinstance(value, ast.Constant)
                            and isinstance(value.value, str)
                        ):
                            cls.guards[key.value] = value.value

    def _guard_comment(self, lineno: int) -> Optional[str]:
        if 0 < lineno <= len(self.source_lines):
            match = _GUARDED_RE.search(self.source_lines[lineno - 1])
            if match:
                return match.group(1)
        return None

    def _scan_attr_assign(
        self,
        cls: ClassInfo,
        node: ast.Assign,
        param_types: Dict[str, Tuple[str, ...]],
    ) -> None:
        if len(node.targets) != 1:
            return
        attr = _self_attr(node.targets[0])
        if attr is None:
            return
        guard = self._guard_comment(node.lineno)
        if guard is not None and attr not in cls.guards:
            cls.guards[attr] = guard
        value = node.value
        if isinstance(value, ast.Name) and value.id in param_types:
            for name in param_types[value.id]:
                if _looks_like_class(name):
                    cls.attr_types.setdefault(attr, set()).add(name)
            return
        if isinstance(value, ast.Call):
            named = _is_named_factory(value)
            stdlib = _is_threading_factory(value)
            if named is not None:
                kind, reentrant, literal = named
                wrapped = _condition_wrapped_lock(value)
                wrapped_attr = _self_attr(wrapped) if wrapped is not None else None
                if wrapped_attr is not None:
                    cls.alias_attrs.setdefault(attr, wrapped_attr)
                    return
                lock_id = literal or f"{cls.qualname}.{attr}"
                cls.lock_attrs.setdefault(attr, LockDecl(
                    lock_id, kind, reentrant, cls.module, cls.name, attr,
                    node.lineno,
                ))
                return
            if stdlib is not None:
                kind, reentrant = stdlib
                wrapped = _condition_wrapped_lock(value)
                wrapped_attr = _self_attr(wrapped) if wrapped is not None else None
                if wrapped_attr is not None:
                    cls.alias_attrs.setdefault(attr, wrapped_attr)
                    return
                cls.lock_attrs.setdefault(attr, LockDecl(
                    f"{cls.qualname}.{attr}", kind, reentrant,
                    cls.module, cls.name, attr, node.lineno,
                ))
                return
            callee = _call_name(value)
            if _looks_like_class(callee):
                cls.attr_types.setdefault(attr, set()).add(callee)
            return
        other = _self_attr(value)
        if other is not None and other != attr:
            cls.alias_attrs.setdefault(attr, other)

    def _scan_family_call(self, cls: ClassInfo, node: ast.Call) -> None:
        """``self._locks.setdefault(key, <lock factory>)`` family marks."""
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "setdefault"):
            return
        attr = _self_attr(func.value)
        if attr is None or len(node.args) < 2:
            return
        default = node.args[1]
        if not isinstance(default, ast.Call):
            return
        named = _is_named_factory(default)
        if named is not None:
            literal = named[2] or f"{cls.qualname}.{attr}[]"
            cls.family_attrs.setdefault(attr, literal)
            return
        if _is_threading_factory(default) is not None:
            cls.family_attrs.setdefault(attr, f"{cls.qualname}.{attr}[]")

    # -- functions -----------------------------------------------------------

    def _scan_function(self, node: ast.FunctionDef, cls: Optional[ClassInfo]) -> FuncInfo:
        func = FuncInfo(
            module=self.info.module,
            cls=cls.name if cls else None,
            name=node.name,
            lineno=node.lineno,
            path=self.info.path,
        )
        params = [a.arg for a in node.args.posonlyargs + node.args.args]
        if cls is not None and params and params[0] == "self":
            params = params[1:]
        func.params = params + [a.arg for a in node.args.kwonlyargs]
        func.return_types = tuple(
            n for n in _type_names(node.returns) if _looks_like_class(n)
        )
        builder = _FuncBuilder(self, cls, func)
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
            for name in _type_names(arg.annotation):
                if _looks_like_class(name):
                    builder.local_types.setdefault(arg.arg, set()).add(name)
        func.ops = builder.build_block(node.body)
        return func


class _FuncBuilder:
    """Builds one function's op list, tracking local lock bindings."""

    def __init__(self, scanner: _ModuleScanner, cls: Optional[ClassInfo], func: FuncInfo):
        self.scanner = scanner
        self.cls = cls
        self.func = func
        self.local_locks: Dict[str, LockSpec] = {}
        self.local_types: Dict[str, Set[str]] = {}

    # -- lock expression resolution -----------------------------------------

    def resolve_lock(self, node: Optional[ast.expr]) -> Optional[LockSpec]:
        if node is None:
            return None
        attr = _self_attr(node)
        if attr is not None and self.cls is not None:
            if self._is_lockish_attr(attr):
                return ("attr", attr)
            return None
        if isinstance(node, ast.Name):
            if node.id in self.local_locks:
                return self.local_locks[node.id]
            if node.id in self.func.params and node.id not in self.local_types:
                return ("param", node.id)
            return None
        if isinstance(node, ast.Call):
            named = _is_named_factory(node)
            if named is not None and named[2] is not None:
                return ("concrete", named[2])
            # self._locks.get(k) / self._locks.setdefault(k, …) on a
            # family attribute yields that family's lock class
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "get", "setdefault",
            ):
                owner = _self_attr(func.value)
                if owner is not None:
                    family = self._family_of(owner)
                    if family is not None:
                        return ("concrete", family)
            # `with self._servant_lock(key):` — resolved via the callee's
            # return locks during interpretation
            spec = self._call_spec(node)
            if spec is not None and spec.kind in ("self", "selfpath", "localpath"):
                return ("call", spec)
            return None
        if isinstance(node, ast.Subscript):
            owner = _self_attr(node.value)
            if owner is not None:
                family = self._family_of(owner)
                if family is not None:
                    return ("concrete", family)
        return None

    def _is_lockish_attr(self, attr: str) -> bool:
        """Lock-attribute check against this class and same-module bases."""
        classes = self.scanner.info.classes
        stack = [self.cls] if self.cls is not None else []
        visited: Set[str] = set()
        while stack:
            klass = stack.pop()
            if klass is None or klass.name in visited:
                continue
            visited.add(klass.name)
            name = attr
            seen: Set[str] = set()
            while name in klass.alias_attrs and name not in seen:
                seen.add(name)
                name = klass.alias_attrs[name]
            if name in klass.lock_attrs:
                return True
            stack.extend(classes.get(base) for base in klass.bases)
        return False

    def _family_of(self, attr: str) -> Optional[str]:
        classes = self.scanner.info.classes
        stack = [self.cls] if self.cls is not None else []
        visited: Set[str] = set()
        while stack:
            klass = stack.pop()
            if klass is None or klass.name in visited:
                continue
            visited.add(klass.name)
            if attr in klass.family_attrs:
                return klass.family_attrs[attr]
            stack.extend(classes.get(base) for base in klass.bases)
        return None

    # -- call receiver shapes -----------------------------------------------

    def _call_spec(self, node: ast.Call) -> Optional[CallSpec]:
        func = node.func
        if isinstance(func, ast.Name):
            return CallSpec("func", func.id)
        if not isinstance(func, ast.Attribute):
            return None
        # unwind the attribute chain down to its root
        chain: List[str] = []
        probe = func.value
        while isinstance(probe, ast.Attribute):
            chain.append(probe.attr)
            probe = probe.value
        chain.reverse()
        if isinstance(probe, ast.Name):
            if probe.id == "self":
                if not chain:
                    return CallSpec("self", func.attr)
                return CallSpec("selfpath", func.attr, path=tuple(chain))
            if probe.id in self.local_types:
                return CallSpec(
                    "localpath", func.attr, path=tuple(chain),
                    types=tuple(sorted(self.local_types[probe.id])),
                )
            if not chain and _looks_like_class(probe.id):
                return CallSpec("clsname", func.attr, types=(probe.id,))
        return None

    # -- statement walking ---------------------------------------------------

    def build_block(self, stmts: Sequence[ast.stmt]) -> List[Op]:
        ops: List[Op] = []
        for stmt in stmts:
            ops.extend(self.build_stmt(stmt))
        return ops

    def build_stmt(self, stmt: ast.stmt) -> List[Op]:
        if isinstance(stmt, ast.With):
            return self._build_with(stmt)
        if isinstance(stmt, ast.Assign):
            return self._build_assign(stmt)
        if isinstance(stmt, ast.AugAssign):
            ops = self.walk_expr(stmt.value)
            attr = _self_attr(stmt.target)
            if attr is not None:
                ops.append(Mutate(stmt.lineno, attr=attr, desc="augmented assignment"))
            elif isinstance(stmt.target, ast.Subscript):
                owner = _self_attr(stmt.target.value)
                if owner is not None:
                    ops.append(Mutate(stmt.lineno, attr=owner, desc="item update"))
                ops.extend(self.walk_expr(stmt.target.value))
                ops.extend(self.walk_expr(stmt.target.slice))
            return ops
        if isinstance(stmt, ast.Delete):
            ops: List[Op] = []
            for target in stmt.targets:
                attr = _self_attr(target)
                if attr is not None:
                    ops.append(Mutate(stmt.lineno, attr=attr, desc="del"))
                elif isinstance(target, ast.Subscript):
                    owner = _self_attr(target.value)
                    if owner is not None:
                        ops.append(Mutate(stmt.lineno, attr=owner, desc="del item"))
                    ops.extend(self.walk_expr(target.value))
                    ops.extend(self.walk_expr(target.slice))
            return ops
        if isinstance(stmt, ast.Expr):
            return self.walk_expr(stmt.value)
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                return []
            spec = self.resolve_lock(stmt.value)
            if spec is not None:
                self.func.returns.append(spec)
            return self.walk_expr(stmt.value)
        if isinstance(stmt, (ast.If, ast.While)):
            ops = self.walk_expr(stmt.test)
            ops.extend(self.build_block(stmt.body))
            ops.extend(self.build_block(stmt.orelse))
            return ops
        if isinstance(stmt, ast.For):
            ops = self.walk_expr(stmt.iter)
            self._bind_loop_target(stmt.target, stmt.iter)
            ops.extend(self.build_block(stmt.body))
            ops.extend(self.build_block(stmt.orelse))
            return ops
        if isinstance(stmt, ast.Try):
            ops = self.build_block(stmt.body)
            for handler in stmt.handlers:
                ops.extend(self.build_block(handler.body))
            ops.extend(self.build_block(stmt.orelse))
            ops.extend(self.build_block(stmt.finalbody))
            return ops
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            ops = []
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    ops.extend(self.walk_expr(child))
            return ops
        if isinstance(stmt, ast.AnnAssign):
            ops = []
            if stmt.value is not None:
                ops.extend(self.walk_expr(stmt.value))
            if isinstance(stmt.target, ast.Name):
                # `owner: Union[Node, RemoteNode] = …` types the local
                types = {
                    name for name in _type_names(stmt.annotation)
                    if _looks_like_class(name)
                }
                self.local_types.pop(stmt.target.id, None)
                if types:
                    self.local_types[stmt.target.id] = types
            attr = _self_attr(stmt.target)
            if attr is not None:
                ops.append(Mutate(stmt.lineno, attr=attr, desc="assignment"))
            return ops
        # nested defs/classes, imports, pass, global, …: not walked
        return []

    def _bind_loop_target(self, target: ast.expr, iterable: ast.expr) -> None:
        """Type `for node in self.nodes.values():` loop variables."""
        if not isinstance(iterable, ast.Call):
            return
        func = iterable.func
        if not isinstance(func, ast.Attribute) or func.attr not in ("values", "items"):
            return
        owner = _self_attr(func.value)
        if owner is None or self.cls is None:
            return
        value_types = self.cls.attr_value_types.get(owner)
        if not value_types:
            return
        if func.attr == "values" and isinstance(target, ast.Name):
            self.local_types.setdefault(target.id, set()).update(value_types)
        elif (
            func.attr == "items"
            and isinstance(target, ast.Tuple)
            and len(target.elts) == 2
            and isinstance(target.elts[1], ast.Name)
        ):
            self.local_types.setdefault(target.elts[1].id, set()).update(value_types)

    def _build_with(self, stmt: ast.With) -> List[Op]:
        ops: List[Op] = []
        regions: List[Region] = []
        for item in stmt.items:
            spec = self.resolve_lock(item.context_expr)
            ops.extend(self.walk_expr(item.context_expr))
            if spec is not None:
                regions.append(Region(stmt.lineno, lock=spec, body=[]))
            if item.optional_vars is not None and isinstance(
                item.optional_vars, ast.Name
            ):
                self.local_locks.pop(item.optional_vars.id, None)
                if spec is not None:
                    self.local_locks[item.optional_vars.id] = spec
        body = self.build_block(stmt.body)
        for region in reversed(regions):
            region.body = body
            body = [region]
        ops.extend(body)
        return ops

    def _build_assign(self, stmt: ast.Assign) -> List[Op]:
        ops = self.walk_expr(stmt.value)
        spec = self.resolve_lock(stmt.value)
        value_types = self._infer_types(stmt.value)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                self.local_locks.pop(target.id, None)
                self.local_types.pop(target.id, None)
                # `node = self.node(name)`: a call typed `-> Node` is a
                # value, not a helper-returned lock
                if value_types - set(_LOCK_FACTORIES):
                    self.local_types[target.id] = set(value_types)
                elif spec is not None:
                    self.local_locks[target.id] = spec
            attr = _self_attr(target)
            if attr is not None:
                ops.append(Mutate(stmt.lineno, attr=attr, desc="assignment"))
            if isinstance(target, ast.Subscript):
                owner = _self_attr(target.value)
                if owner is not None:
                    ops.append(Mutate(stmt.lineno, attr=owner, desc="item assignment"))
                ops.extend(self.walk_expr(target.value))
                ops.extend(self.walk_expr(target.slice))
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    el_attr = _self_attr(element)
                    if el_attr is not None:
                        ops.append(Mutate(stmt.lineno, attr=el_attr, desc="assignment"))
        return ops

    def _infer_types(self, node: ast.expr) -> Set[str]:
        """Candidate class names for an expression's value."""
        if isinstance(node, ast.Name):
            return set(self.local_types.get(node.id, ()))
        attr = _self_attr(node)
        if attr is not None and self.cls is not None:
            return set(self.cls.attr_types.get(attr, ()))
        if isinstance(node, ast.Call):
            callee = _call_name(node)
            if _looks_like_class(callee):
                return {callee}
            func = node.func
            # self.nodes.get(k) on a Dict[str, Node] attribute
            if isinstance(func, ast.Attribute) and func.attr == "get":
                owner = _self_attr(func.value)
                if owner is not None and self.cls is not None:
                    return set(self.cls.attr_value_types.get(owner, ()))
            # self.node(name) with a `-> Node` return annotation
            spec = self._call_spec(node)
            if spec is not None and spec.kind == "self" and self.cls is not None:
                method = self.cls.methods.get(spec.name)
                if method is not None:
                    return set(method.return_types)
            return set()
        if isinstance(node, ast.Subscript):
            owner = _self_attr(node.value)
            if owner is not None and self.cls is not None:
                return set(self.cls.attr_value_types.get(owner, ()))
        return set()

    def walk_expr(self, node: Optional[ast.expr]) -> List[Op]:
        """Extract ops from an arbitrary expression, in evaluation order."""
        ops: List[Op] = []
        if node is None:
            return ops
        if isinstance(node, ast.Call):
            for arg in node.args:
                ops.extend(self.walk_expr(arg))
            for kw in node.keywords:
                ops.extend(self.walk_expr(kw.value))
            ops.extend(self._call_ops(node))
            return ops
        if isinstance(node, ast.Lambda):
            ops.extend(self.walk_expr(node.body))
            return ops
        if isinstance(node, ast.Attribute):
            # a method referenced outside call position is a callback
            # target (Thread(target=self._loop), bus guard installs, …)
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id == "self":
                if self.cls is not None and not self._is_lockish_attr(node.attr):
                    self.scanner.info.callback_refs.add((self.cls.name, node.attr))
            else:
                recv_attr = _self_attr(receiver)
                if recv_attr is not None and self.cls is not None:
                    for type_name in self.cls.attr_types.get(recv_attr, ()):
                        self.scanner.info.callback_refs.add((type_name, node.attr))
            ops.extend(self.walk_expr(receiver))
            return ops
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                ops.extend(self.walk_expr(child))
            elif isinstance(child, ast.comprehension):
                ops.extend(self.walk_expr(child.iter))
                for cond in child.ifs:
                    ops.extend(self.walk_expr(cond))
        return ops

    def _call_ops(self, node: ast.Call) -> List[Op]:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver_spec = self.resolve_lock(func.value)
            if receiver_spec is not None:
                if func.attr == "acquire":
                    return [Acquire(
                        node.lineno, lock=receiver_spec,
                        trylock=self._is_trylock(node),
                    )]
                if func.attr == "release":
                    return [Release(node.lineno, lock=receiver_spec)]
                # wait/notify/wait_for on a held condition: no ordering
                return []
            receiver = _self_attr(func.value)
            if receiver is not None and func.attr in _MUTATORS:
                return [Mutate(node.lineno, attr=receiver, desc=f".{func.attr}()")]
        spec = self._call_spec(node)
        if spec is None:
            return []
        return [self._make_call(node, spec)]

    def _make_call(self, node: ast.Call, spec: CallSpec) -> Call:
        call = Call(node.lineno, spec=spec)
        for index, arg in enumerate(node.args):
            lock = self.resolve_lock(arg)
            if lock is not None:
                call.pos_locks[index] = lock
        for kw in node.keywords:
            if kw.arg is not None:
                lock = self.resolve_lock(kw.value)
                if lock is not None:
                    call.kw_locks[kw.arg] = lock
        return call

    @staticmethod
    def _is_trylock(node: ast.Call) -> bool:
        """True unless the acquire blocks unconditionally."""
        if node.args:
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and first.value is True):
                return True
        for kw in node.keywords:
            if kw.arg == "blocking":
                if not (
                    isinstance(kw.value, ast.Constant) and kw.value.value is True
                ):
                    return True
            if kw.arg == "timeout":
                return True
        return False


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _module_name(path: Path, root: Path) -> str:
    relative = path.relative_to(root)
    parts = list(relative.parts)
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([root.name] + parts) if parts else root.name


def scan_paths(paths: Sequence[str]) -> Index:
    """Scan ``paths`` (package directories or single files) into an Index.

    A directory is walked recursively; its own name anchors module
    names, so scanning ``src/repro`` produces ``repro.middleware.bus``
    style modules.
    """
    index = Index()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            files = [root]
        else:
            files = sorted(root.rglob("*.py"))
        for file in files:
            source = file.read_text(encoding="utf-8")
            module = file.stem if root.is_file() else _module_name(file, root)
            scanner = _ModuleScanner(module, file, source)
            try:
                info = scanner.scan()
            except SyntaxError:
                continue
            index.modules[module] = info
            for cls in info.classes.values():
                index.classes[cls.qualname] = cls
                for decl in cls.lock_attrs.values():
                    index.locks.setdefault(decl.lock_id, decl)
                for family_id in cls.family_attrs.values():
                    index.locks.setdefault(family_id, LockDecl(
                        family_id, "rlock", True, cls.module, cls.name,
                        "<family>", cls.lineno,
                    ))
    return index
