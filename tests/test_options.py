"""No option without a setter: each defaulted parameter (or frozen-dataclass field) in
``src/repro`` is passed, by keyword or position, by a call in ``src/``, ``perfbench/`` or
``examples/``, or :data:`KEPT` names it with its reason.  Else it is a constant: write one."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KEPT = {  # reason -> the options kept for it, as ``Qual(param ...)``
    "size knobs tests use to shrink runs or pin the CP interval": "TrafficEngine(cp_interval_us)"
    " run_traffic(n_cps blocks_per_disk cores) Cluster(epoch_cps) Cluster.schedule(rounds)"
    " TierSpec(blocks_per_aa) BitmapMetafile(bits_per_block) RAIDAgnosticAACache(bin_width)",
    "device and CPU models; ROADMAP item 7 replaces the SSD model": "HDD(config)"
    " ObjectStore(config name) HDDConfig(seek_us transfer_us_per_block) ObjectStoreConfig(put_us"
    " concurrency transfer_us_per_block max_blocks_per_put) CpuModel(base_us_per_op us_per_block"
    " us_per_metafile_block us_per_aa_switch us_per_cache_op us_per_spanned_block)",
    "a space passes it to the allocator it picks": "LinearAllocator(store_offset)"
    " RAIDGroupAllocator(store_offset)",
    "the one way to bound a recovery's retries": "PersistenceModel.recover(budget)",
    "tests read a bounded span prefix": "Bitmap.allocated_in_range(limit) AATopology.free_vbns("
    "limit) StripeAATopology.free_vbns(limit) LinearAATopology.free_vbns(limit)",
    "tests feed the CLI, linter and keeper inputs of their own": "main(argv)"
    " lint_paths(config) lint_source(path module config) FlowConfig(hot_root_modules)"
    " ScoreKeeper(bitmap)",
    "tests inject an auditor, scrub other windows and replace parity disks": "CPEngine(auditor)"
    " arm_global(raise_on_violation) Scrub(window) RAIDGroupRuntime.replace_disk(parity)",
    "workload shapes tests pin": "FileChurnWorkload(create_bias) ZipfOverwriteMix(alpha"
    " blocks_per_op)",
}


def _opts(fn, cls):
    """``(callees, 'Qual(param)', param, position or None)`` per defaulted parameter."""
    a, init = fn.args, fn.name == "__init__"
    pos = (a.posonlyargs + a.args)[1 if cls else 0:]
    callee, qual = (cls, cls) if init else (fn.name, ".".join(filter(None, (cls, fn.name))))
    named = [(p, i) for i, p in enumerate(pos) if i >= len(pos) - len(a.defaults)]
    named += [(p, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return [((callee,), f"{qual}({p.arg})", p.arg, i) for p, i in named]


def census() -> set[str]:
    """The options no call sets; ``**kw`` passes every keyword, ``cls(...)`` calls
    its class, ``super().__init__(...)`` its bases, ``replace(...)`` any frozen field."""
    opts, seen = [], {}
    for path in (p for d in ("src", "perfbench", "examples") for p in (ROOT / d).rglob("*.py")):
        tree, src = ast.parse(path.read_text()), path.parts[len(ROOT.parts)] == "src"
        for node in ast.walk(tree) if "tests" not in path.parts else ():  # parents first
            if isinstance(node, ast.ClassDef):
                for child in ast.walk(node):
                    child.owner = node
                opts += [o for f in node.body if src and isinstance(f, ast.FunctionDef)
                         for o in _opts(f, node.name)]
                if src and any("frozen=True" in ast.unparse(d) for d in node.decorator_list):
                    fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                              and "ClassVar" not in ast.unparse(s.annotation)]
                    opts += [((node.name, "replace"), f"{node.name}({s.target.id})", s.target.id, i)
                             for i, s in enumerate(fields) if s.value is not None]
            elif isinstance(node, ast.Call):
                f, own = node.func, getattr(node, "owner", None)
                name = getattr(f, "id", getattr(f, "attr", None))
                keys = [own.name if own and name == "cls" else name]
                if own and name == "__init__" and isinstance(f.value, ast.Call):  # super()
                    keys += [ast.unparse(b) for b in own.bases]
                for key in keys:  # a replace() call sets fields by keyword only
                    seen.setdefault(key, []).append((len(node.args) * (name != "replace"),
                                                     {k.arg for k in node.keywords}))
        opts += [o for f in tree.body if src and isinstance(f, ast.FunctionDef)
                 for o in _opts(f, None)]
    return {option for callees, option, param, i in opts if not any(
        param in kws or None in kws or (i is not None and n > i)
        for n, kws in (call for callee in callees for call in seen.get(callee, [])))}


def test_every_option_has_a_setter_or_a_reason():
    kept = {f"{qual}({p})" for names in KEPT.values()
            for qual, params in re.findall(r"([\w.]+)\(([\w ]+)\)", names) for p in params.split()}
    assert (unset := census()) - kept == set(), "set by no caller: make it a constant or keep it"
    assert kept - unset == set(), "KEPT names options that a caller sets, or that are gone"
