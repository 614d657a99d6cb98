"""The repo-aware rule catalog: REP001 — REP005.

Each rule mechanically enforces one contract the test suites otherwise
only witness at runtime:

========  ===============================================================
REP001    **Determinism.** No ambient randomness or clock reads inside
          ``src/repro``: stdlib ``random``, unseeded
          ``np.random.default_rng()``, the legacy ``np.random.*`` global
          RNG, ``time.time``/``perf_counter``, ``datetime.now``,
          ``os.urandom``, ``uuid.uuid4`` and PYTHONHASHSEED-sensitive
          set iteration all break the bit-identity guarantee (identical
          results across backends, worker counts and retries).  The seed
          derivation itself (``repro.engine.seeding``) and the
          observability timing channel (``repro.obs.recorder``) are the
          two allowlisted homes of nondeterminism.
REP002    **Seam compliance.** Execution resources are decided in one
          place (``repro.api``): no ``BatchRunner``/``CalibrationCache``
          or process/thread-pool construction outside ``repro.api`` /
          ``repro.engine``, no job-queue/worker-pool construction
          (``JobQueue``/``WorkerPool``/stdlib ``Queue`` family) outside
          ``repro.service`` / ``repro.engine``, and no
          ``n_workers=``/``backend=`` parameters outside the seam.  The
          scenario layer's
          ``backend=``/``n_workers=`` overrides are a sanctioned
          forwarding surface (they pass verbatim into an
          ``ExecutionPolicy`` and are part of the recorded-baseline
          contract), so ``repro/scenarios`` is exempt; the service
          layer forwards each job's policy to the seam and sizes its
          worker pool, so ``repro/service`` is parameter-exempt too.
REP003    **Error discipline.** Raises inside ``src/repro`` must be
          :class:`~repro.errors.ConfigError`-family exceptions naming
          the offending field — never bare ``ValueError``/``TypeError``/
          ``assert`` (asserts vanish under ``python -O``; anonymous
          exceptions strand the caller without the field to fix).
REP004    **Canonical serialization.** Exact-channel and baseline
          artifacts must be byte-stable: every ``json.dumps``/``dump``
          routes through ``reporting.export.canonical_json`` (or its
          compact JSONL sibling), which is the only module allowed to
          call the raw encoder.
REP005    **Lock discipline.** A class declaring ``_lock_guarded =
          ("attr", ...)`` promises those attributes are only mutated
          under ``with self._lock``; this rule makes the promise
          checkable (``__init__``/``__post_init__`` are exempt — the
          object is not yet shared).
========  ===============================================================

Rules are small :mod:`ast` visitors over a parsed
:class:`~repro.analysis.engine.Module`; each yields ``(line, col,
message)`` triples and the engine stamps path and code.  Adding a rule
is: subclass :class:`Rule`, give it a code/name/summary, implement
``applies``/``check``, append it to :data:`RULES` and add fixture tests
under ``tests/analysis/`` (see DESIGN.md, "static analysis & contract
enforcement").
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

Violation = tuple[int, int, str]


class Rule:
    """Base class: one contract, one code, one AST pass."""

    code: str = "REP000"
    name: str = "base"
    summary: str = ""

    def applies(self, module) -> bool:
        """Whether this rule has anything to say about ``module``.

        The default scope is the library itself: any file whose path
        resolves under ``src/repro``.  Tests and benchmarks parse but
        carry no library contracts.
        """
        return module.package_path is not None

    def check(self, module) -> Iterator[Violation]:  # pragma: no cover
        raise NotImplementedError

    def catalog_entry(self) -> str:
        return f"{self.code}  {self.name}: {self.summary}"


def _dotted(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


# ----------------------------------------------------------------------
# REP001 — determinism
# ----------------------------------------------------------------------

#: time.* attributes that read a clock.
_CLOCK_ATTRS = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "clock",
}
#: datetime class methods that read a clock.
_NOW_ATTRS = {"now", "utcnow", "today"}
#: Module-level numpy.random entry points that draw from (or reseed) the
#: hidden global RNG, plus explicit global seeding.
_NUMPY_GLOBAL_RNG = {
    "random", "rand", "randn", "randint", "random_sample", "ranf",
    "sample", "normal", "uniform", "choice", "shuffle", "permutation",
    "standard_normal", "poisson", "binomial", "beta", "gamma",
    "exponential", "bytes", "seed", "get_state", "set_state",
}
#: numpy.random names that are deterministic machinery, fine to use.
_NUMPY_SAFE = {"Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}


class DeterminismRule(Rule):
    """REP001: no ambient randomness or clock reads in library code."""

    code = "REP001"
    name = "determinism"
    summary = (
        "no stdlib random, unseeded RNGs, clock reads or "
        "PYTHONHASHSEED-sensitive set iteration inside src/repro"
    )

    #: The two sanctioned homes of nondeterminism.
    ALLOWLIST = ("repro/engine/seeding.py", "repro/obs/recorder.py")

    def applies(self, module) -> bool:
        return (
            module.package_path is not None
            and module.package_path not in self.ALLOWLIST
        )

    def check(self, module) -> Iterator[Violation]:
        visitor = _DeterminismVisitor()
        visitor.visit(module.tree)
        yield from visitor.findings


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self) -> None:
        self.findings: list[Violation] = []
        self.random_aliases: set[str] = set()
        self.time_aliases: set[str] = set()
        self.datetime_mod_aliases: set[str] = set()
        self.datetime_cls_names: set[str] = set()
        self.os_aliases: set[str] = set()
        self.uuid_aliases: set[str] = set()
        self.numpy_aliases: set[str] = set()
        self.numpy_random_aliases: set[str] = set()
        self.unseeded_rng_names: set[str] = set()

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append((node.lineno, node.col_offset, message))

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self.random_aliases.add(bound)
            elif alias.name == "time":
                self.time_aliases.add(bound)
            elif alias.name == "datetime":
                self.datetime_mod_aliases.add(bound)
            elif alias.name == "os":
                self.os_aliases.add(bound)
            elif alias.name == "uuid":
                self.uuid_aliases.add(bound)
            elif alias.name == "numpy":
                self.numpy_aliases.add(bound)
            elif alias.name == "numpy.random":
                self.numpy_random_aliases.add(alias.asname or "numpy")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        for alias in node.names:
            bound = alias.asname or alias.name
            if mod == "random":
                self._flag(
                    node,
                    f"import of stdlib random.{alias.name} — library code "
                    f"must derive randomness from the analyzer seed via "
                    f"repro.engine.seeding",
                )
            elif mod == "time" and alias.name in _CLOCK_ATTRS:
                self._flag(
                    node,
                    f"import of time.{alias.name} — clock reads are "
                    f"nondeterministic; timings belong to the repro.obs "
                    f"timing channel",
                )
            elif mod == "os" and alias.name == "urandom":
                self._flag(
                    node,
                    "import of os.urandom — entropy reads break the "
                    "bit-identity contract; derive seeds via "
                    "repro.engine.seeding",
                )
            elif mod == "uuid" and alias.name in ("uuid1", "uuid4"):
                self._flag(
                    node,
                    f"import of uuid.{alias.name} — random identifiers "
                    f"break reproducibility; derive names from job indices",
                )
            elif mod == "datetime" and alias.name in ("datetime", "date"):
                self.datetime_cls_names.add(bound)
            elif mod == "numpy":
                if alias.name == "random":
                    self.numpy_random_aliases.add(bound)
            elif mod == "numpy.random":
                if alias.name == "default_rng":
                    self.unseeded_rng_names.add(bound)
                elif alias.name in _NUMPY_GLOBAL_RNG:
                    self._flag(
                        node,
                        f"import of numpy.random.{alias.name} — the global "
                        f"numpy RNG is shared mutable state; use a seeded "
                        f"np.random.default_rng(seed) per job",
                    )
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        chain = _dotted(node.func)
        if chain:
            self._check_chain(node, chain)
        self.generic_visit(node)

    def _check_chain(self, node: ast.Call, chain: list[str]) -> None:
        root, rest = chain[0], chain[1:]
        if root in self.random_aliases and rest:
            self._flag(
                node,
                f"call to {'.'.join(chain)} — stdlib random draws from "
                f"hidden global state; derive per-job randomness from the "
                f"analyzer seed (repro.engine.seeding)",
            )
        elif root in self.time_aliases and rest and rest[0] in _CLOCK_ATTRS:
            self._flag(
                node,
                f"call to {'.'.join(chain)} — clock reads are "
                f"nondeterministic; timings belong to the repro.obs "
                f"timing channel, never to results",
            )
        elif (
            root in self.datetime_mod_aliases
            and len(rest) >= 2
            and rest[0] in ("datetime", "date")
            and rest[1] in _NOW_ATTRS
        ) or (
            root in self.datetime_cls_names
            and rest
            and rest[0] in _NOW_ATTRS
        ):
            self._flag(
                node,
                f"call to {'.'.join(chain)} — wall-clock timestamps are "
                f"nondeterministic; pass timestamps in explicitly",
            )
        elif root in self.os_aliases and rest == ["urandom"]:
            self._flag(
                node,
                "call to os.urandom — entropy reads break the bit-identity "
                "contract; derive seeds via repro.engine.seeding",
            )
        elif root in self.uuid_aliases and rest and rest[0] in ("uuid1", "uuid4"):
            self._flag(
                node,
                f"call to {'.'.join(chain)} — random identifiers break "
                f"reproducibility; derive names from job indices",
            )
        elif self._is_numpy_random(root, rest):
            attr = rest[-1]
            if attr == "default_rng" and not node.args and not node.keywords:
                self._flag(
                    node,
                    "np.random.default_rng() without a seed draws OS "
                    "entropy; pass a seed derived via repro.engine.seeding",
                )
            elif attr == "RandomState" and not node.args and not node.keywords:
                self._flag(
                    node,
                    "np.random.RandomState() without a seed draws OS "
                    "entropy; pass a seed derived via repro.engine.seeding",
                )
            elif attr in _NUMPY_GLOBAL_RNG:
                self._flag(
                    node,
                    f"call to {'.'.join(chain)} — the global numpy RNG is "
                    f"shared mutable state; use a seeded "
                    f"np.random.default_rng(seed) per job",
                )
        elif (
            not rest
            and root in self.unseeded_rng_names
            and not node.args
            and not node.keywords
        ):
            self._flag(
                node,
                "default_rng() without a seed draws OS entropy; pass a "
                "seed derived via repro.engine.seeding",
            )

    def _is_numpy_random(self, root: str, rest: list[str]) -> bool:
        if root in self.numpy_aliases and len(rest) == 2 and rest[0] == "random":
            return True
        return root in self.numpy_random_aliases and len(rest) == 1

    # -- PYTHONHASHSEED-sensitive iteration ----------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iteration(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def _check_iteration(self, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node):
            self.findings.append(
                (iter_node.lineno, iter_node.col_offset,
                 "iteration over a set is PYTHONHASHSEED-sensitive "
                 "(order varies across interpreter runs); sort first "
                 "(sorted(...)) to fix the order")
            )

    def visit_Call_set_materialization(self, node: ast.Call) -> None:
        pass  # handled inside visit_Call via generic_visit ordering

    def generic_visit(self, node: ast.AST) -> None:
        # Materializing a set's order: list(set(...)), tuple(set(...)),
        # enumerate(set(...)), iter(set(...)).
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate", "iter")
            and len(node.args) == 1
            and _is_set_expr(node.args[0])
        ):
            self.findings.append(
                (node.lineno, node.col_offset,
                 f"{node.func.id}(set(...)) materializes "
                 f"PYTHONHASHSEED-sensitive order; use sorted(...) instead")
            )
        super().generic_visit(node)


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


# ----------------------------------------------------------------------
# REP002 — seam compliance
# ----------------------------------------------------------------------

class SeamRule(Rule):
    """REP002: execution resources are built in repro.api, nowhere else."""

    code = "REP002"
    name = "seam-compliance"
    summary = (
        "no BatchRunner/CalibrationCache/worker-pool construction outside "
        "the repro.api seam, no queue/worker-pool construction outside "
        "repro.service/repro.engine, and no n_workers=/backend=/"
        "chunk_size= parameters outside the seam"
    )

    #: Packages allowed to build execution resources.
    SEAM_PREFIXES = ("repro/api/", "repro/engine/")
    #: Packages allowed to build job queues and worker pools: the service
    #: layer (which owns scheduling) and the engine (which owns process
    #: pools; skipped entirely via SEAM_PREFIXES above).
    QUEUE_PREFIXES = ("repro/service/", "repro/engine/")
    #: Additional packages whose backend=/n_workers= *parameters* are a
    #: documented forwarding surface: the scenario layer forwards them
    #: verbatim into an ExecutionPolicy (part of the recorded-baseline
    #: contract) and the service layer forwards each job's policy to
    #: the seam and sizes its worker pool.
    KWARG_EXEMPT_PREFIXES = SEAM_PREFIXES + (
        "repro/scenarios/", "repro/service/",
    )

    RESOURCE_NAMES = {
        "BatchRunner", "CalibrationCache",
        "ProcessPoolExecutor", "ThreadPoolExecutor", "Pool", "ThreadPool",
    }
    #: Job-queue / worker-pool types: legal only under QUEUE_PREFIXES.
    QUEUE_NAMES = {
        "JobQueue", "WorkerPool",
        "Queue", "PriorityQueue", "LifoQueue", "SimpleQueue",
    }
    PARAM_NAMES = {"n_workers", "backend", "chunk_size"}

    def applies(self, module) -> bool:
        path = module.package_path
        return path is not None and not path.startswith(self.SEAM_PREFIXES)

    def check(self, module) -> Iterator[Violation]:
        kwargs_exempt = module.package_path.startswith(
            self.KWARG_EXEMPT_PREFIXES
        )
        queues_allowed = module.package_path.startswith(self.QUEUE_PREFIXES)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = None
                if isinstance(node.func, ast.Name):
                    name = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                if name in self.RESOURCE_NAMES:
                    yield (
                        node.lineno, node.col_offset,
                        f"construction of {name} outside repro.api/"
                        f"repro.engine — execution resources are decided "
                        f"by ExecutionPolicy and owned by Session "
                        f"(build via policy.build_runner()/build_cache())",
                    )
                elif name in self.QUEUE_NAMES and not queues_allowed:
                    yield (
                        node.lineno, node.col_offset,
                        f"construction of {name} outside repro.service/"
                        f"repro.engine — job queues and worker pools are "
                        f"owned by the service layer (submit work through "
                        f"repro.service.AnalyzerService)",
                    )
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and not kwargs_exempt:
                params = (
                    node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                )
                for arg in params:
                    if arg.arg in self.PARAM_NAMES:
                        yield (
                            arg.lineno, arg.col_offset,
                            f"parameter {arg.arg}= on {node.name}() "
                            f"re-plumbs execution strategy outside the "
                            f"repro.api seam — accept an ExecutionPolicy/"
                            f"Session instead",
                        )


# ----------------------------------------------------------------------
# REP003 — error discipline
# ----------------------------------------------------------------------

class ErrorDisciplineRule(Rule):
    """REP003: library raises are ConfigError-family, naming the field."""

    code = "REP003"
    name = "error-discipline"
    summary = (
        "raises in src/repro must be ReproError subclasses naming the "
        "offending field — no bare ValueError/TypeError/assert"
    )

    BANNED = {"ValueError", "TypeError", "AssertionError", "Exception"}
    #: ReproError family (repro.errors) — raises must use one of these.
    FAMILY = {
        "ConfigError", "TimingError", "EvaluationError",
        "CalibrationError", "FaultError", "ServiceError", "ReproError",
    }

    def check(self, module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assert):
                yield (
                    node.lineno, node.col_offset,
                    "assert vanishes under 'python -O'; raise a "
                    "ConfigError naming the offending field instead",
                )
            elif isinstance(node, ast.Raise) and node.exc is not None:
                yield from self._check_raise(node)

    def _check_raise(self, node: ast.Raise) -> Iterator[Violation]:
        exc = node.exc
        call_args = None
        if isinstance(exc, ast.Call):
            call_args = exc
            exc = exc.func
        chain = _dotted(exc)
        if not chain:
            return
        name = chain[-1]
        if name in self.BANNED:
            yield (
                node.lineno, node.col_offset,
                f"raise {name} — library errors must be ReproError "
                f"subclasses (repro.errors) naming the offending field, "
                f"so callers can catch one hierarchy and know what to fix",
            )
        elif name in self.FAMILY and call_args is not None:
            if not call_args.args and not call_args.keywords:
                yield (
                    node.lineno, node.col_offset,
                    f"raise {name}() without a message — the error must "
                    f"name the offending field and the received value",
                )


# ----------------------------------------------------------------------
# REP004 — canonical serialization
# ----------------------------------------------------------------------

class CanonicalJsonRule(Rule):
    """REP004: all JSON encoding routes through canonical_json."""

    code = "REP004"
    name = "canonical-serialization"
    summary = (
        "no raw json.dumps/json.dump outside "
        "reporting.export.canonical_json — baselines must be byte-stable"
    )

    EXPORT_MODULE = "repro/reporting/export.py"
    ALLOWED_FUNCTIONS = {"canonical_json", "compact_canonical_json"}

    def check(self, module) -> Iterator[Violation]:
        allowed_ranges = []
        if module.package_path == self.EXPORT_MODULE:
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.FunctionDef)
                    and node.name in self.ALLOWED_FUNCTIONS
                ):
                    allowed_ranges.append((node.lineno, node.end_lineno))

        json_aliases = {"json"}
        dump_names: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "json":
                        json_aliases.add(alias.asname or "json")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                for alias in node.names:
                    if alias.name in ("dumps", "dump"):
                        dump_names.add(alias.asname or alias.name)

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if not chain:
                continue
            is_dump = (
                len(chain) == 2
                and chain[0] in json_aliases
                and chain[1] in ("dumps", "dump")
            ) or (len(chain) == 1 and chain[0] in dump_names)
            if not is_dump:
                continue
            if any(lo <= node.lineno <= hi for lo, hi in allowed_ranges):
                continue
            yield (
                node.lineno, node.col_offset,
                "raw json encoding is not byte-stable (key order, float "
                "form, NaN leakage); route through "
                "repro.reporting.export.canonical_json / "
                "compact_canonical_json",
            )


# ----------------------------------------------------------------------
# REP005 — lock discipline
# ----------------------------------------------------------------------

#: Mutating container/collection methods.
_MUTATOR_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "add", "discard", "setdefault", "move_to_end", "sort",
    "reverse",
}
#: Methods where self-mutation is allowed without the lock: the object
#: is under construction and not yet visible to other threads.
_CONSTRUCTION_METHODS = {"__init__", "__post_init__", "__new__"}


class LockDisciplineRule(Rule):
    """REP005: declared lock-guarded attributes mutate only under the lock."""

    code = "REP005"
    name = "lock-discipline"
    summary = (
        "attributes listed in a class's _lock_guarded declaration may "
        "only be mutated inside 'with self._lock'"
    )

    def check(self, module) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                guarded = _guarded_attrs(node)
                if guarded:
                    yield from self._check_class(node, guarded)

    def _check_class(
        self, cls: ast.ClassDef, guarded: set[str]
    ) -> Iterator[Violation]:
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name in _CONSTRUCTION_METHODS:
                continue
            yield from self._check_body(item.body, cls.name, guarded,
                                        locked=False)

    def _check_body(
        self, body: Iterable[ast.stmt], cls_name: str, guarded: set[str],
        locked: bool,
    ) -> Iterator[Violation]:
        for stmt in body:
            now_locked = locked
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                if any(_is_self_lock(i.context_expr) for i in stmt.items):
                    now_locked = True
            if not locked:
                yield from self._check_stmt_mutations(stmt, cls_name, guarded,
                                                      now_locked)
            # Recurse into nested blocks with the updated lock state.
            for child_body in _child_bodies(stmt):
                yield from self._check_body(child_body, cls_name, guarded,
                                            now_locked)

    def _check_stmt_mutations(
        self, stmt: ast.stmt, cls_name: str, guarded: set[str], locked: bool
    ) -> Iterator[Violation]:
        if locked:
            return
        # The statement itself (assignments, deletes), then its own
        # expressions for mutator-method calls — but not nested blocks
        # (those recurse with their own lock state).
        candidates: list[ast.AST] = [stmt]
        for node in _own_expressions(stmt):
            candidates.extend(ast.walk(node))
        for sub in candidates:
            attr = _mutated_guarded_attr(sub, guarded)
            if attr is not None:
                yield (
                    sub.lineno, sub.col_offset,
                    f"attribute {attr!r} of {cls_name} is declared "
                    f"lock-guarded (_lock_guarded) but mutated outside "
                    f"'with self._lock'",
                )


def _guarded_attrs(cls: ast.ClassDef) -> set[str]:
    """Names declared in a class-level ``_lock_guarded = (...)``."""
    for stmt in cls.body:
        targets: list[ast.expr] = []
        value = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "_lock_guarded":
                if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                    return {
                        elt.value for elt in value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    }
    return set()


def _is_self_lock(expr: ast.expr) -> bool:
    """``self._lock`` (or any ``self.*_lock``) used as a context manager."""
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and expr.attr.endswith("_lock")
    )


def _child_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    bodies = []
    for field_name in ("body", "orelse", "finalbody"):
        child = getattr(stmt, field_name, None)
        if child and isinstance(child, list):
            bodies.append(child)
    for handler in getattr(stmt, "handlers", []) or []:
        bodies.append(handler.body)
    return bodies


def _own_expressions(stmt: ast.stmt) -> list[ast.AST]:
    """The statement's own expression children (not nested statements)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    exprs: list[ast.AST] = []
    for field_name, value in ast.iter_fields(stmt):
        if field_name in ("body", "orelse", "finalbody", "handlers"):
            continue
        if isinstance(value, ast.AST):
            exprs.append(value)
        elif isinstance(value, list):
            exprs.extend(v for v in value if isinstance(v, ast.AST))
    return exprs


def _is_self_attr(node: ast.expr, guarded: set[str]) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in guarded
    ):
        return node.attr
    return None


def _mutated_guarded_attr(node: ast.AST, guarded: set[str]) -> str | None:
    """The guarded attribute this node mutates, if any."""
    if isinstance(node, ast.Assign):
        for target in node.targets:
            attr = _assign_target_attr(target, guarded)
            if attr:
                return attr
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return _assign_target_attr(node.target, guarded)
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            attr = _assign_target_attr(target, guarded)
            if attr:
                return attr
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _MUTATOR_METHODS:
            return _is_self_attr(node.func.value, guarded)
    return None


def _assign_target_attr(target: ast.expr, guarded: set[str]) -> str | None:
    # self.attr = ... / self.attr += ... / del self.attr
    attr = _is_self_attr(target, guarded)
    if attr:
        return attr
    # self.attr[...] = ... / del self.attr[...]
    if isinstance(target, ast.Subscript):
        return _is_self_attr(target.value, guarded)
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            attr = _assign_target_attr(elt, guarded)
            if attr:
                return attr
    return None


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: The shipped rule set, in code order.
RULES: tuple[Rule, ...] = (
    DeterminismRule(),
    SeamRule(),
    ErrorDisciplineRule(),
    CanonicalJsonRule(),
    LockDisciplineRule(),
)


def rule_codes(rules: Iterable[Rule] = RULES) -> tuple[str, ...]:
    return tuple(rule.code for rule in rules)


def rule_catalog(rules: Iterable[Rule] = RULES) -> str:
    """Human-readable catalog (the CLI's ``--list-rules``)."""
    from .suppressions import ENGINE_CODES

    lines = [rule.catalog_entry() for rule in rules]
    lines.extend(
        f"{code}  engine: {summary}" for code, summary in ENGINE_CODES.items()
    )
    return "\n".join(lines)
