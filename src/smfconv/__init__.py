"""Strongly matricially free convolutions of 2x2 distribution arrays.

Three mutually independent engines compute the convolution moments:
labelled non-crossing partition sums, truncated Fock-space operators, and
the analytic subordination recursion.  On top of the Fock model, the
unit-valued transform layer assembles the matricial R-transform, checks
the linearization identities in every state, and reconstructs the
transform uniquely from moment data.

Importing the package loads none of its modules: each public name, and
each module that defines one (``smfconv.fock``), resolves on first use,
so a job imports only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines; partitions defines none, but
# smfconv.partitions loads on first use like every other module
_EXPORTS = {
    "analytic": ("cauchy_value", "master_cauchy", "stieltjes_density"),
    "arrays": ("ALL_CELLS", "DistributionArray", "NamedLaw", "SHAPES"),
    "fock": ("FockModel",),
    "matricial": ("UnitSeries", "assemble_matricial_r", "check_residuals",
                  "reconstruct_unique"),
    "moments": ("smf_moments",),
    "partitions": (),
    "series": ("FLOAT", "RATIONAL", "TruncatedSeries"),
    "units": ("QCELLS", "UnitElement"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return import_module("." + name, __name__)
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = globals()[name] = getattr(
        import_module("." + _MODULE_OF[name], __name__), name)
    return value


def __dir__():
    # the namespace of an eager import: every module and name, no
    # lookup machinery
    shown = set(globals()) - {"import_module", "_EXPORTS", "_MODULE_OF",
                              "__getattr__", "__dir__"}
    return sorted(shown | set(_EXPORTS) | set(__all__))
