"""Outside-in span tracer for the qfock package.

The tracer wraps the public functions of each package module, and the ring
operations of ``Series``, from outside the package: it rebinds every
``qfock.*`` module attribute that holds a wrapped function object, so calls
made through by-name imports (``closedform.pochhammer_inf``,
``verify.first_difference``, ...) are seen as well.  ``uninstall`` puts
every original back.

Each call becomes a span (name, start, end, parent span, operation id).
Spans stay in memory in flat arrays and are written out once, by
``write_spans``.  Self time (span duration minus the time covered by child
spans), call counts and inclusive time of outermost calls are accumulated
as the spans close.

A span is named ``<module>.<function>`` after the module that defines the
function; ``Series`` operators use short names (``qseries.mul``,
``qseries.add``, ...).  The time of unwrapped code (private helpers,
``Param`` and ``HalfInt`` arithmetic) counts as self time of the nearest
wrapped caller.
"""

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("qseries", "combinat", "fock", "modesum", "closedform", "verify",
          "cli")

# Series attribute -> span suffix.  Aliases (__radd__, __rmul__) share the
# function object of the operator they alias and so share its span.
SERIES_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "rsub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
    "invert": "invert", "scale": "scale", "shift": "shift",
    "truncate": "truncate", "coeff_z": "coeff_z",
}

# Fock traces whose enumerated basis is counted into ``fock.states``.
FOCK_TRACES = ("a_sector_trace", "a_sector_dims", "a_generalized_trace",
               "f1_charged_trace", "neutral_trace", "duality_trace",
               "duality_trace_direct")


# -- basis-state counts, kept apart from fock.mod_partitions' cache -----------


@functools.lru_cache(maxsize=None)
def _partition_table(budget2, strict):
    """{(w2, length): count} over partitions with doubled modified weight
    w2 = 2|lam| - len(lam) <= budget2 (distinct parts when strict)."""
    table = {(0, 0): 1}
    top = (budget2 + 1) // 2
    for part in range(1, top + 1):
        cost = 2 * part - 1
        new = dict(table)
        for (w2, ln), c in table.items():
            k = 1
            while w2 + k * cost <= budget2:
                key = (w2 + k * cost, ln + k)
                new[key] = new.get(key, 0) + c
                if strict:
                    break
                k += 1
        table = new
    return table


def _pair_counts(budget2, strict, charge=None):
    """Energy histogram of (lam, mu) pairs, optionally with
    len(mu) - len(lam) == charge."""
    table = _partition_table(budget2, strict)
    out = [0] * (budget2 + 1)
    for (w1, l1), c1 in table.items():
        for (w2, l2), c2 in table.items():
            if w1 + w2 <= budget2 and (charge is None or l2 - l1 == charge):
                out[w1 + w2] += c1 * c2
    return out


def _single_counts(budget2, strict):
    out = [0] * (budget2 + 1)
    for (w2, _), c in _partition_table(budget2, strict).items():
        out[w2] += c
    return out


def _factor_counts(kind, budget2):
    strict = kind.startswith("fermion")
    if kind.endswith("_pair"):
        return _pair_counts(budget2, strict)
    return _single_counts(budget2, strict)


def fock_states(name, a, to2):
    """Basis states within the energy budget that one trace call sums over;
    ``a`` maps the trace's parameter names to the call's arguments."""
    n2 = to2(a["N"])
    if name in ("a_sector_trace", "a_sector_dims"):
        return sum(_pair_counts(n2, False, charge=a["m"]))
    if name == "a_generalized_trace":
        return sum(_pair_counts(n2, False))
    if name == "f1_charged_trace":
        return sum(_pair_counts(n2, True))
    if name == "neutral_trace":
        return sum(_factor_counts(a["kind"], n2))
    # duality traces: tensor product of the factors, total energy <= N
    total = [1] + [0] * n2
    for kind in a["factors"]:
        fac = _factor_counts(kind, n2)
        total = [sum(total[i] * fac[e - i] for i in range(e + 1))
                 for e in range(n2 + 1)]
    return sum(total)


def _point_key(p):
    return (p.s, p.d2, p.e2, p.zvar, p.sign)


# -- tracer -------------------------------------------------------------------


class Tracer:
    """Span recorder for one benchmark pass.  Set ``op`` to the index of the
    running operation; spans carry it as their operation id."""

    def __init__(self):
        self.op = -1
        self.names = []           # span-name id -> name
        self._ids = {}
        # spans, one entry per array
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        # per span-name aggregates
        self.calls = []
        self.self_s = []
        self.outer_s = []
        self._depth = []
        self.counters = {"qseries.mul.term_pairs": 0, "fock.states": 0,
                         "fock.duality_trace.repeats": 0}
        self._duality_seen = set()
        self._stack = []
        self._patches = []
        self._lru = None
        self._lru_start = None

    # span bookkeeping --------------------------------------------------------

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.outer_s.append(0.0)
            self._depth.append(0)
        return nid

    def _enter(self, nid):
        stack = self._stack
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_op.append(self.op)
        self._depth[nid] += 1
        start = perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        stack.append([idx, nid, start, 0.0])

    def _exit(self):
        end = perf_counter()
        idx, nid, start, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        self.self_s[nid] += dur - child
        self._depth[nid] -= 1
        if not self._depth[nid]:
            self.outer_s[nid] += dur
        if self._stack:
            self._stack[-1][3] += dur

    # wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name, hook=None):
        nid = self._name_id(name)
        calls = self.calls
        enter, exit_ = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            # A generator runs as the caller iterates it: each resumption is
            # a span of its own, and only the creation counts as a call.
            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    enter(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_()
                    yield item
            return functools.wraps(fn)(gen_wrapper)

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            calls[nid] += 1
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return functools.wraps(fn)(wrapper)

    def _hook(self, fn, name, qseries):
        counters = self.counters
        if name == "qseries.mul":
            Series = qseries.Series

            def mul_pairs(args, kwargs):
                a, b = args
                counters["qseries.mul.term_pairs"] += len(a.terms) * (
                    len(b.terms) if isinstance(b, Series) else 1)
            return mul_pairs
        fname = name.split(".", 1)[1]
        if name.startswith("fock.") and fname in FOCK_TRACES:
            seen = self._duality_seen
            to2 = qseries.to2
            sig = inspect.signature(fn)

            def states(args, kwargs):
                a = sig.bind(*args, **kwargs).arguments
                counters["fock.states"] += fock_states(fname, a, to2)
                if fname == "duality_trace":
                    key = (tuple(a["factors"]), a["op_tag"],
                           tuple(_point_key(p) for p in a["points"]),
                           to2(a["N"]))
                    if key in seen:
                        counters["fock.duality_trace.repeats"] += 1
                    seen.add(key)
            return states
        return None

    # install / uninstall ----------------------------------------------------

    def install(self):
        """Wrap every public function of the package modules and the Series
        operators, rebinding all module attributes that refer to them."""
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "qfock" or name.startswith("qfock.")}
        qseries = pkg["qfock.qseries"]
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = pkg["qfock." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) \
                        or inspect.isclass(obj) \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                wrapped[id(obj)] = (obj, self._wrap(
                    obj, name, self._hook(obj, name, qseries)))
        series = qseries.Series
        for attr, op in SERIES_OPS.items():
            fn = series.__dict__[attr]
            if id(fn) not in wrapped:
                name = "qseries." + op
                wrapped[id(fn)] = (fn, self._wrap(
                    fn, name, self._hook(fn, name, qseries)))
            self._patch(series, attr, wrapped[id(fn)][1])
        self._lru = pkg["qfock.fock"].mod_partitions
        self._lru_start = self._lru.cache_info()
        for mod in pkg.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)][1])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # results ----------------------------------------------------------------

    def _agg(self, name, table):
        nid = self._ids.get(name)
        return table[nid] if nid is not None else 0

    def metrics(self, traced_wall_s):
        """Per-layer metrics: self time and calls per layer, plus the named
        function-level figures and work counters."""
        out = {}
        total_self = 0.0
        for layer in LAYERS:
            prefix = layer + "."
            self_s = sum(s for n, s in zip(self.names, self.self_s)
                         if n.startswith(prefix))
            out[layer + ".self_s"] = self_s
            out[layer + ".calls"] = sum(c for n, c in zip(self.names,
                                                          self.calls)
                                        if n.startswith(prefix))
            total_self += self_s
        calls = functools.partial(self._agg, table=self.calls)
        incl = functools.partial(self._agg, table=self.outer_s)
        out["qseries.mul.calls"] = calls("qseries.mul")
        out["qseries.mul.self_s"] = self._agg("qseries.mul", self.self_s)
        out["qseries.mul.term_pairs"] = self.counters["qseries.mul.term_pairs"]
        out["qseries.add.self_s"] = self._agg("qseries.add", self.self_s)
        out["qseries.invert.calls"] = calls("qseries.invert")
        for fn in ("invert", "pochhammer_inf", "qhyper", "theta_jet"):
            out["qseries.%s.s" % fn] = incl("qseries." + fn)
        out["fock.a_sector_trace.calls"] = calls("fock.a_sector_trace")
        for fn in ("a_sector_trace", "neutral_trace", "f1_charged_trace",
                   "a_generalized_trace", "duality_trace"):
            out["fock.%s.s" % fn] = incl("fock." + fn)
        out["fock.states"] = self.counters["fock.states"]
        info = self._lru.cache_info()
        hits = info.hits - self._lru_start.hits
        misses = info.misses - self._lru_start.misses
        out["fock.mod_partitions.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        dcalls = calls("fock.duality_trace")
        out["fock.duality_trace.calls"] = dcalls
        out["fock.duality_trace.repeat_ratio"] = (
            self.counters["fock.duality_trace.repeats"] / dcalls
            if dcalls else 0.0)
        for fn in ("a_generalized_trace", "neutral_c_trace"):
            out["modesum.%s.s" % fn] = incl("modesum." + fn)
        out["closedform.f_bo.calls"] = calls("closedform.f_bo")
        for fn in ("f_bo", "duality_reduce", "extract_dominant",
                   "qdim_closed", "one_point_minus1", "qdiff_residual"):
            out["closedform.%s.s" % fn] = incl("closedform." + fn)
        out["verify.run_check.s"] = incl("verify.run_check")
        # first_difference is defined in qseries; verify.run_check is its
        # only caller in the package.
        out["verify.first_difference.s"] = incl("qseries.first_difference")
        out["trace.spans"] = len(self.span_name)
        out["trace.layer_share"] = (total_self / traced_wall_s
                                    if traced_wall_s else 0.0)
        return out

    def write_spans(self, path):
        """Write all spans: one JSON header line (names, span count, array
        typecodes), then the name, parent, op, start and end arrays as raw
        machine-order binary, in that order."""
        arrays = (self.span_name, self.span_parent, self.span_op,
                  self.span_start, self.span_end)
        header = {"names": self.names, "spans": len(self.span_name),
                  "arrays": ["name", "parent", "op", "start", "end"],
                  "typecodes": [a.typecode for a in arrays],
                  "itemsizes": [a.itemsize for a in arrays],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for a in arrays:
                a.tofile(fh)
