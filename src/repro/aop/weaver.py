"""Runtime weaver: instruments Python classes and dispatches advice.

Weaving replaces the class's methods with thin wrappers that consult the
weaver's deployed aspects *at call time*, so aspects may be deployed and
undeployed without re-weaving.  Dispatch order at one join point:

1. ``before`` advice, highest-precedence (lowest rank) first;
2. the ``around`` chain, highest-precedence outermost, bottoming out at the
   original member;
3. on normal exit: ``after_returning`` then ``after`` advice, highest-
   precedence **last** (symmetric nesting);
4. on exception: ``after_throwing`` then ``after`` advice, same order, and
   the exception is re-raised.

Field join points (``get``/``set``) are supported by weaving named fields
into properties (:meth:`Weaver.weave_field`).
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.witness import named_rlock
from repro.errors import WeavingError
from repro.aop.advice import Advice, AdviceKind, Invocation
from repro.aop.aspect import Aspect
from repro.aop.joinpoint import JoinPoint, JoinPointKind
from repro.aop.ordering import PrecedenceTable
from repro.aop.pointcut import (
    AndPointcut,
    CflowPointcut,
    NotPointcut,
    OrPointcut,
    Pointcut,
)

_WOVEN_MARK = "__repro_woven__"
_FIELD_PREFIX = "__repro_field_"

#: active join-point stack (innermost last); read by cflow pointcuts.
#: Thread-local: each worker thread of the concurrent dispatcher has its
#: own control flow, so cflow must never observe another thread's frames.
_stack_local = threading.local()


def _current_frames() -> List[JoinPoint]:
    frames = getattr(_stack_local, "frames", None)
    if frames is None:
        frames = _stack_local.frames = []
    return frames


def call_stack() -> List[JoinPoint]:
    """A snapshot of the active woven join points, outermost first."""
    return list(_current_frames())


def _pointcut_is_dynamic(pointcut: Pointcut) -> bool:
    """True when matching depends on runtime state (cflow), so the match
    result cannot be memoized by the join point's static signature."""
    if isinstance(pointcut, CflowPointcut):
        return True
    if isinstance(pointcut, NotPointcut):
        return _pointcut_is_dynamic(pointcut.inner)
    if isinstance(pointcut, (AndPointcut, OrPointcut)):
        return _pointcut_is_dynamic(pointcut.left) or _pointcut_is_dynamic(
            pointcut.right
        )
    return False


class Weaver:
    """Deploys aspects and instruments classes."""

    def __init__(self):
        self.precedence = PrecedenceTable()
        #: class → {member name: original function}
        self._woven_methods: Dict[type, Dict[str, Callable]] = {}
        #: class → {field name: previous class attribute or sentinel}
        self._woven_fields: Dict[type, Dict[str, object]] = {}
        #: static-signature → (the static advice's plan, its (seq, advice)
        #: pairs, the dynamic (seq, advice) pairs)
        self._match_memo: Dict[tuple, tuple] = {}
        #: epoch counter bumped on every deploy/undeploy and on advice
        #: mutation of a deployed aspect (the aspects notify us); memo
        #: staleness is one integer comparison instead of rebuilding an
        #: O(deployed-advice) identity fingerprint on every dispatch
        self._epoch = 0
        self._memo_epoch = 0
        #: guards memo + counters: dispatch runs on concurrent worker
        #: threads, and a stale memo must never be re-published after a
        #: concurrent deploy/undeploy
        self._memo_lock = named_rlock("weaver.memo")
        self.pointcut_memo_hits = 0
        self.pointcut_memo_misses = 0

    # -- deployment ----------------------------------------------------------

    def _bump_epoch(self) -> None:
        with self._memo_lock:
            self._epoch += 1

    def deploy(self, aspect: Aspect, rank: Optional[int] = None) -> int:
        """Deploy an aspect; rank defaults to deployment order."""
        rank = self.precedence.deploy(aspect, rank)
        aspect.subscribe(self._bump_epoch)
        self._bump_epoch()
        return rank

    def undeploy(self, aspect: Aspect) -> None:
        self.precedence.undeploy(aspect)
        aspect.unsubscribe(self._bump_epoch)
        self._bump_epoch()

    @property
    def deployed_aspects(self) -> List[Aspect]:
        return [aspect for _, aspect in self.precedence.ordered()]

    # -- weaving methods -------------------------------------------------------

    def weave_class(self, cls: type, members: Optional[List[str]] = None) -> List[str]:
        """Instrument the plain functions of ``cls``; returns woven names.

        ``members`` restricts which methods are woven; by default every
        non-dunder function defined directly on the class is woven.
        """
        originals = self._woven_methods.setdefault(cls, {})
        woven = []
        names = members if members is not None else [
            name
            for name, value in vars(cls).items()
            if callable(value) and not name.startswith("__")
        ]
        for name in names:
            # explicit member lists may name inherited methods; the wrapper is
            # installed on this class, shadowing the base definition
            value = vars(cls).get(name, getattr(cls, name, None))
            if value is None:
                raise WeavingError(f"{cls.__name__} has no member {name!r}")
            if getattr(value, _WOVEN_MARK, False):
                continue
            if not callable(value):
                raise WeavingError(f"{cls.__name__}.{name} is not callable")
            originals[name] = value
            setattr(cls, name, self._method_wrapper(cls.__name__, name, value))
            woven.append(name)
        return woven

    def unweave_class(self, cls: type) -> None:
        """Restore the original methods and fields of ``cls``."""
        for name, original in self._woven_methods.pop(cls, {}).items():
            setattr(cls, name, original)
        for name, previous in self._woven_fields.pop(cls, {}).items():
            if previous is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, previous)

    def _method_wrapper(self, class_name: str, name: str, original: Callable) -> Callable:
        weaver = self

        @functools.wraps(original)
        def wrapper(self_obj, *args, **kwargs):
            jp = JoinPoint(
                JoinPointKind.EXECUTION, self_obj, class_name, name, args, kwargs
            )
            return weaver.dispatch(jp, lambda: original(self_obj, *args, **kwargs))

        setattr(wrapper, _WOVEN_MARK, True)
        return wrapper

    # -- weaving fields ----------------------------------------------------------

    def weave_field(self, cls: type, field_name: str) -> None:
        """Turn ``cls.field_name`` into a property emitting get/set join points.

        Per-instance values are stored under a mangled key, so instances
        created before weaving keep their state only if the field is woven
        before they assign it; weave at class-definition time in practice.
        """
        fields = self._woven_fields.setdefault(cls, {})
        if field_name in fields:
            return
        fields[field_name] = vars(cls).get(field_name, _MISSING)
        storage = _FIELD_PREFIX + field_name
        weaver = self
        class_name = cls.__name__

        def getter(self_obj):
            jp = JoinPoint(JoinPointKind.GET, self_obj, class_name, field_name)
            return weaver.dispatch(
                jp, lambda: self_obj.__dict__.get(storage)
            )

        def setter(self_obj, value):
            jp = JoinPoint(
                JoinPointKind.SET, self_obj, class_name, field_name, (value,)
            )

            def store():
                self_obj.__dict__[storage] = (
                    jp.args[0] if jp.args else value
                )

            weaver.dispatch(jp, store)

        setattr(cls, field_name, property(getter, setter))

    # -- dispatch ---------------------------------------------------------------

    def _plan(self, jp: JoinPoint) -> Optional["AdvicePlan"]:
        """The advice to run at ``jp``, in run order (None when nothing
        applies).

        Matching against *static* pointcuts depends only on the join
        point's (kind, class, member) signature, so the plan they give
        is memoized per signature (invalidated on deploy/undeploy) and
        shared between dispatches.  Advice guarded by a cflow-containing
        pointcut is re-evaluated on every dispatch — its match depends
        on the live call stack — and, when any of it matches, merged
        with the static advice by precedence into a fresh plan.
        """
        key = (jp.kind, jp.class_name, jp.member_name)
        with self._memo_lock:
            if self._memo_epoch != self._epoch:
                self._match_memo.clear()
                self._memo_epoch = self._epoch
            memo = self._match_memo.get(key)
            if memo is None:
                self.pointcut_memo_misses += 1
                static: List[tuple] = []
                dynamic: List[tuple] = []
                seq = 0
                for _, aspect in self.precedence.ordered():
                    for advice in aspect.advices:
                        if _pointcut_is_dynamic(advice.pointcut):
                            dynamic.append((seq, advice))
                        elif advice.matches(jp):
                            static.append((seq, advice))
                        seq += 1
                memo = (AdvicePlan.of(static), static, dynamic)
                self._match_memo[key] = memo
            else:
                self.pointcut_memo_hits += 1
        plan, static, dynamic = memo
        if not dynamic:
            return plan
        matched = [entry for entry in dynamic if entry[1].matches(jp)]
        if not matched:
            return plan
        return AdvicePlan.of(sorted(static + matched, key=lambda entry: entry[0]))

    def dispatch(self, jp: JoinPoint, terminal: Callable[[], object]):
        """Run the advice plan for ``jp`` around ``terminal``.

        The join point is pushed on the cflow stack for the duration of
        the dispatch (advice chain *and* the underlying member), so cflow
        pointcuts evaluated in nested calls see it.
        """
        frames = _current_frames()
        frames.append(jp)
        try:
            plan = self._plan(jp)
            if plan is None:
                return terminal()
            around, before, after_throwing, after, after_returning = plan
            call = terminal
            for advice in around:
                call = functools.partial(_around_step, advice, jp, call)
            for advice in before:
                advice.body(jp)
            try:
                result = call()
            except BaseException as exc:
                jp.exception = exc
                for advice in after_throwing:
                    advice.body(jp)
                for advice in after:
                    advice.body(jp)
                raise
            jp.result = result
            for advice in after_returning:
                advice.body(jp)
            for advice in after:
                advice.body(jp)
            return result
        finally:
            frames.pop()


class AdvicePlan(NamedTuple):
    """The advice matching one join point, each kind in the order it is
    applied: around advice innermost first (the order the chain is bound
    in, so the highest precedence ends up outermost), before advice
    highest precedence first, and the after kinds highest precedence
    *last* (symmetric nesting)."""

    around: Tuple[Advice, ...]
    before: Tuple[Advice, ...]
    after_throwing: Tuple[Advice, ...]
    after: Tuple[Advice, ...]
    after_returning: Tuple[Advice, ...]

    @classmethod
    def of(cls, matched: List[tuple]) -> Optional["AdvicePlan"]:
        """The plan of ``(seq, advice)`` pairs in precedence order, or
        None when there are none."""
        if not matched:
            return None
        by_kind: Dict[AdviceKind, List[Advice]] = {kind: [] for kind in AdviceKind}
        for _, advice in matched:
            by_kind[advice.kind].append(advice)
        return cls(
            around=tuple(reversed(by_kind[AdviceKind.AROUND])),
            before=tuple(by_kind[AdviceKind.BEFORE]),
            after_throwing=tuple(reversed(by_kind[AdviceKind.AFTER_THROWING])),
            after=tuple(reversed(by_kind[AdviceKind.AFTER])),
            after_returning=tuple(reversed(by_kind[AdviceKind.AFTER_RETURNING])),
        )


def _around_step(advice: Advice, jp: JoinPoint, next_call: Callable[[], object]):
    return advice.body(Invocation(jp, next_call))


class _Missing:
    def __repr__(self):  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()
