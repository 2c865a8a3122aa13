"""Spans and counters at the boundaries of the library's layers, for traced runs.

The tracer replaces, in every loaded ``interlace`` module and in the package
namespace, each name bound to a public function of one of the layers with a
wrapper that records a span: name, start, end, parent span and operation id.
Calls inside a layer go through the same module globals, so they are spanned
too.  ``Poly.__call__`` is counted but not spanned, and the two ``SturmChain``
methods the root layer leans on are spanned as methods.  A name that a later
version of the library drops is simply not wrapped.  Reading a Sturm chain's
coefficient sizes happens after its span closes and lands in the caller's
self time, as does the wrappers' own cost; the traced run reports that cost
as ``trace.overhead_s``.

Spans live in flat arrays (no per-span objects for the garbage collector to
walk) and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("polys", "realroots", "words", "edgewise", "compat", "matrices", "cli")

# per-layer metrics in the order of BENCHMARK.json, with how each is made
METRICS = (
    "polys.self_s", "polys.gcd_calls", "polys.gcd_s", "polys.exact_div_calls",
    "polys.evals", "polys.peak_coeff_bits",
    "realroots.self_s", "realroots.sturm_chains", "realroots.sign_evals",
    "realroots.sign_eval_s", "realroots.is_real_rooted_s", "realroots.isolate_s",
    "realroots.refine_s", "realroots.interleaves_s", "realroots.interleaves_calls",
    "realroots.interleaves_cache_hits",
    "edgewise.self_s", "edgewise.calls",
    "words.self_s", "words.words_enumerated", "words.words_per_s",
    "compat.self_s", "compat.combinations_tested",
    "matrices.self_s", "matrices.interleaves_calls",
    "cli.self_s", "cli.commands",
)
# inclusive time of the outermost span of one name
_INCLUSIVE = {
    "polys.gcd_s": "polys.poly_gcd",
    "realroots.sign_eval_s": "realroots.SturmChain.variations_at",
    "realroots.is_real_rooted_s": "realroots.is_real_rooted",
    "realroots.isolate_s": "realroots.isolate_roots",
    "realroots.refine_s": "realroots.refine_certificate",
    "realroots.interleaves_s": "realroots.interleaves",
}
# number of spans of one name
_CALLS = {
    "polys.gcd_calls": "polys.poly_gcd",
    "polys.exact_div_calls": "polys.exact_div",
    "realroots.sturm_chains": "realroots.SturmChain.of_squarefree",
    "realroots.sign_evals": "realroots.SturmChain.variations_at",
    "realroots.interleaves_calls": "realroots.interleaves",
    "cli.commands": "cli.main",
}
# calls made through one module's binding of another layer's function
_SITES = {
    "compat.combinations_tested": "compat->realroots.is_real_rooted",
    "matrices.interleaves_calls": "matrices->realroots.interleaves",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.peak_bits = 0

    # -- recording -------------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.end)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, site=None, after=None):
        nid = self._nid(name)
        opn, close, counts = self._open, self._close, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = opn(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if site:
                counts[site] += 1
            return after(args, out) if after else out
        return wrapper

    def _traced_iter(self, name, it):
        nid = self._nid(name)
        while True:
            idx = self._open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.counts["words.words_enumerated"] += 1
            yield item

    # -- installation ------------------------------------------------------------

    def install(self, pkg) -> None:
        mods = {L: sys.modules[f"{pkg.__name__}.{L}"] for L in LAYERS
                if f"{pkg.__name__}.{L}" in sys.modules}
        public = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                # functions and lru_cache wrappers of functions; not classes, and
                # not callable instances such as the polynomial constants
                fn = getattr(obj, "__wrapped__", obj)
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    public[id(obj)] = (layer, attr, obj)
        for site in [pkg] + list(mods.values()):
            here = site.__name__.rpartition(".")[2]
            for attr, obj in list(vars(site).items()):
                if id(obj) not in public or attr.startswith("_"):
                    continue
                layer, fname, fn = public[id(obj)]
                name = f"{layer}.{fname}"
                setattr(site, attr, self._wrap(name, fn, f"{here}->{name}", self._after(name)))
        polys, realroots = mods.get("polys"), mods.get("realroots")
        if polys is not None and hasattr(polys, "Poly"):
            call = polys.Poly.__call__
            counts = self.counts

            def counted_call(p, t):
                counts["polys.evals"] += 1
                return call(p, t)
            polys.Poly.__call__ = counted_call
        chain_cls = getattr(realroots, "SturmChain", None)
        if chain_cls is not None:
            if "of_squarefree" in vars(chain_cls):
                fn = chain_cls.of_squarefree
                chain_cls.of_squarefree = staticmethod(
                    self._wrap("realroots.SturmChain.of_squarefree", fn, after=self._chain_bits))
            if "variations_at" in vars(chain_cls):
                chain_cls.variations_at = self._wrap(
                    "realroots.SturmChain.variations_at", chain_cls.variations_at)

    def _after(self, name):
        if name in ("words.enumerate_sw_prime", "words.enumerate_sw_gamma"):
            return lambda args, gen: self._traced_iter(name, gen)
        if name in ("words.oracle_E", "words.oracle_local_h"):
            # every open word is walked: (r - 1)^n of them
            return self._count_words(lambda args, out: (args[1] - 1) ** args[0])
        if name == "words.oracle_E_gamma":
            return self._count_words(lambda args, out: sum(sum(p.coeffs) for p in out))
        return None

    def _count_words(self, count):
        counts = self.counts

        def after(args, out):
            counts["words.words_enumerated"] += count(args, out)
            return out
        return after

    def _chain_bits(self, args, chain):
        bits = max((abs(c).bit_length() for p in chain.chain for c in p.coeffs), default=0)
        self.peak_bits = max(self.peak_bits, bits)
        return chain

    # -- aggregation -------------------------------------------------------------

    def mark(self):
        """Start of a pass: span index and counter snapshot."""
        self.peak_bits = 0
        return len(self.end), Counter(self.counts)

    def metrics(self, mark) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since ``mark``."""
        lo, before = mark
        hi = len(self.end)
        counts = self.counts - before
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out = {m: 0 for m in METRICS}
        calls = Counter()
        for i in range(lo, hi):
            name = self.names[self.name[i]]
            calls[name] += 1
            dur = self.end[i] - self.start[i]
            out[name.partition(".")[0] + ".self_s"] += dur - child[i - lo]
        for metric, name in _CALLS.items():
            out[metric] = calls[name]
        out["edgewise.calls"] = sum(k for name, k in calls.items() if name.startswith("edgewise."))
        for metric, name in _INCLUSIVE.items():
            nid = self._ids.get(name)
            total = 0.0
            for i in range(lo, hi):
                if self.name[i] == nid and not self._nested_in(i, nid, lo):
                    total += self.end[i] - self.start[i]
            out[metric] = total
        for metric, site in _SITES.items():
            out[metric] = counts[site]
        out["polys.evals"] = counts["polys.evals"]
        out["polys.peak_coeff_bits"] = self.peak_bits
        out["realroots.interleaves_cache_hits"] = counts["realroots.interleaves_cache_hits"]
        out["words.words_enumerated"] = counts["words.words_enumerated"]
        words_s = out["words.self_s"]
        out["words.words_per_s"] = out["words.words_enumerated"] / words_s if words_s > 0 else 0
        return out

    def _nested_in(self, i, nid, lo) -> bool:
        p = self.parent[i]
        while p >= lo:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def write(self, path) -> None:
        """All spans, one per line: name, start, end, parent index, operation id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.end)):
                fh.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                         f"\t{self.parent[i]}\t{self.op[i]}\n")
