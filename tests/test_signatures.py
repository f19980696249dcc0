"""Every public function of the library reads each argument before it uses
it: with valid values elsewhere, a wrong value of any parameter raises
ValidationError (or a subclass), never a bare AttributeError, TypeError or
numpy error.

The functions are found with `inspect`, so a new function or parameter is
covered as soon as it exists: a public parameter whose name is in neither
the table nor the exemptions fails `test_every_parameter_is_in_the_table`.
The valid values are one world: A2 at k = 2 over F_3 and a module M of
rank (1, 1) with a flag of ranks ((1, 0), (0, 1)).  A name that means
another kind of argument in some function is overridden for it in
OVERRIDES.
"""

import functools
import inspect
import json

import pytest

from cartanquiver import cartan, flagvar, gendecomp, hmod, homext, reduction
from cartanquiver import exactlinalg as la
from cartanquiver.errors import ValidationError

MODULES = (cartan, la, hmod, homext, gendecomp, reduction, flagvar)

RAGGED = [[1, 0], [1]]
OBJECT = (None, 5, "x", 1.5)            # a datum, module, flag, map, ...
SEQUENCE = OBJECT + (RAGGED,)           # a vector, brseq, matrix, ...
INTEGER = (None, "x", 1.5)              # below its least value too
PRIME = INTEGER + (4,)

# parameter name -> (valid value by name in the world, wrong values)
TABLE = {
    "datum": ("datum", OBJECT),
    "k": ("k", INTEGER + (0,)),
    "p": ("p", PRIME),
    "p_new": ("q", PRIME),
    "q": ("q", INTEGER + (1,)),
    "r": ("r", SEQUENCE),
    "s": ("e", SEQUENCE),
    "e": ("e", SEQUENCE),
    "a": ("r", SEQUENCE),
    "b": ("r", SEQUENCE),
    "m": ("m", OBJECT),
    "n": ("m", OBJECT),
    "f": ("f", SEQUENCE),
    "g": ("f", SEQUENCE),
    "flag": ("flag", OBJECT),
    "base": ("base", OBJECT),
    "brseq": ("brseq", SEQUENCE),
    "primes": ("primes", SEQUENCE),
    "samples": ("two", INTEGER + (0,)),
    "trials": ("two", INTEGER + (-1,)),
    "k_max": ("two", INTEGER + (0,)),
    "k_new": ("one", INTEGER + (0,)),
    "degree_bound": ("none", ("x", 1.5, -1)),
    "seed": ("zero", ()),
    "subspaces": ("subspaces", OBJECT),
    "eps": ("eps", SEQUENCE),
    "arrows": ("arrows", (5, "x", 1.5, RAGGED)),
    "mats": ("empty", OBJECT + (RAGGED,)),
    "data": ("data", SEQUENCE),
    "cfg": ("cfg", SEQUENCE),
    "path": ("path", (None, 5, 1.5, "no/such/file.json")),
    "c": ("c", SEQUENCE),
    "d": ("d", SEQUENCE),
    "omega": ("omega", SEQUENCE),
    "value": ("two", INTEGER),
    "blocks": ("matrix", SEQUENCE),
    "others": ("m", OBJECT),
    "codes": ("r", (None, "x", 1.5, RAGGED)),
    "points": ("points", SEQUENCE),
    "x": ("tensor", OBJECT),
    "y": ("tensor", OBJECT),
}

# "module.function.parameter" -> (valid value, wrong values) where a name
# means another kind of argument
OVERRIDES = {
    "exactlinalg.integer_array.a": ("matrix", (None, "x", 1.5, RAGGED)),
    "exactlinalg.digits.p": ("two", INTEGER + (1,)),
    "exactlinalg.digit_chunks.p": ("two", INTEGER + (1,)),
    "exactlinalg.gaussian_binomial.n": ("three", INTEGER),
    "exactlinalg.gaussian_binomial.d": ("one", INTEGER),
    "exactlinalg.gaussian_binomial.q": ("two", INTEGER + (1,)),
    "exactlinalg.matpow.e": ("two", INTEGER + (-1,)),
    "exactlinalg.solve.b": ("vector", SEQUENCE),
    "hmod.modules_equal.a": ("m", OBJECT),
    "hmod.modules_equal.b": ("m", OBJECT),
    "hmod.direct_sum.a": ("m", OBJECT),
    "hmod.direct_sum.b": ("m", OBJECT),
    "hmod.epsilon_blocks.a": ("one", INTEGER + (-1,)),
    "hmod.from_structure_matrices.s": ("structure", OBJECT),
    "hmod.quotient.k": ("k", ("x", 1.5, 0)),
    "hmod.structure_space.samples": ("two", INTEGER + (-1,)),
    "flagvar.closed_form_flag_count_no_arrows.datum": ("no_arrows", OBJECT),
}
for _name in ("matpow", "rref", "rank", "inv", "kernel_basis_and_support",
              "kernel_basis_matrix", "image", "solve"):
    OVERRIDES[f"exactlinalg.{_name}.a"] = ("matrix", SEQUENCE)

# "module.function" -> why its arguments are not read
EXEMPT = {
    "exactlinalg.zeros": "sizes the library computes itself",
    "exactlinalg.identity": "a size the library computes itself",
    "exactlinalg.stable_seed": "any repr-stable object is a seed",
    "exactlinalg.rng_from": "any repr-stable object is a seed",
    "exactlinalg.eval_poly": "evaluates the coefficients that "
                             "`lagrange_interpolate` returns",
    "cartan.integers": "the converter of `read_value`: it raises TypeError, "
                       "which its reader turns into ValidationError",
    "cartan.read_value": "the reader itself, given a converter by the "
                         "library",
    "hmod.ring_to_matrix": "converts ring arrays in the layout the library "
                           "builds; outside input comes through "
                           "`structure_from_arrays`",
    "hmod.matrix_to_ring": "converts matrices of a module read before",
    "hmod.free_basis": "a step of `normalize`, on a loop of a module read "
                       "before",
    "homext.intertwiner_rows": "assembles a relation list and layout that "
                               "the library builds (`Layout.of`)",
}

# "module.function.parameter" -> (valid value, why it is not read)
UNREAD = {
    "exactlinalg.digits.width": ("one", "a digit count the library "
                                        "computes"),
    "exactlinalg.digit_chunks.width": ("one", "a digit count the library "
                                              "computes"),
    "exactlinalg.digit_chunks.start": ("zero", "a first code the library "
                                               "computes"),
    "cartan.read_int.what": ("what", "the name of the parameter, given by "
                                     "the library"),
    "cartan.read_int.least": ("zero", "the bound of the parameter, given by "
                                      "the library"),
    "cartan.read_int.error": ("error", "the error type, given by the "
                                       "library"),
    "cartan.rank_seq.n": ("two", "the vertex count of a datum read before"),
}


@functools.lru_cache(maxsize=None)
def world() -> dict:
    """The valid values: A2 at k = 2 over F_3, its module M of rank
    (1, 1), the flag of M with ranks ((1, 0), (0, 1)) and its reduction."""
    a2 = cartan.validate_orientation(
        cartan.validate_cartan([[2, -1], [-1, 2]], [1, 1]), [(0, 1)])
    no_arrows = cartan.validate_orientation(
        cartan.validate_cartan([[2, 0], [0, 2]], [1, 1]), [])
    m = hmod.random_locally_free(a2, 2, 3, (1, 1), seed=1)
    brseq = [(1, 0), (0, 1)]
    flag = next(flagvar.iter_flags(m, brseq))
    one = homext.identity_hom(m)
    cfg = {"n": 2, "C": [[2, -1], [-1, 2]], "D": [1, 1], "omega": [[1, 2]]}
    return {
        "datum": a2, "no_arrows": no_arrows, "k": 2, "p": 3, "q": 2,
        "r": (1, 1), "e": (1, 0), "m": m, "f": one, "flag": flag,
        "base": flagvar.reduce_flag(m, flag), "brseq": brseq,
        "primes": (2, 3), "zero": 0, "one": 1, "two": 2, "three": 3,
        "none": None, "empty": {},
        "subspaces": [la.Subspace.zero(d, 3) for d in m.dims],
        "eps": m.eps, "arrows": m.arrows, "data": hmod.module_to_dict(m),
        "cfg": cfg, "c": cfg["C"], "d": cfg["D"], "omega": [(0, 1)],
        "matrix": la.identity(2),
        "vector": (0, 0), "points": [(1, 2), (2, 3)],
        "structure": hmod.to_structure_matrices(m),
        "tensor": flagvar.TensorModule((m, m), (one,)),
        "what": "value", "error": ValidationError,
    }


def _qualified(module, fn) -> str:
    return f"{module.__name__.rsplit('.', 1)[1]}.{fn.__name__}"


def public_functions():
    """(qualified name, function) of every public function of the library
    modules, defined there."""
    for module in MODULES:
        for name, fn in sorted(vars(module).items()):
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                yield _qualified(module, fn), fn


def parameters():
    """(qualified name, function, parameter) of every parameter of a public
    function, its exemption aside."""
    for qualified, fn in public_functions():
        if qualified in EXEMPT:
            continue
        for name in inspect.signature(fn).parameters:
            if f"{qualified}.{name}" not in UNREAD:
                yield qualified, fn, name


PARAMETERS = list(parameters())


def _spec(qualified: str, name: str):
    key = f"{qualified}.{name}"
    if key in UNREAD:
        return UNREAD[key][0], ()
    return OVERRIDES.get(key, TABLE.get(name))


def _valid_arguments(qualified: str, fn) -> dict:
    specs = {name: _spec(qualified, name)
             for name in inspect.signature(fn).parameters}
    return {name: world()[spec[0]] for name, spec in specs.items()
            if spec is not None}


def _call(fn, arguments: dict):
    """fn on the arguments, its generator stepped once; a var-positional
    parameter is given one value."""
    args, kwargs = [], {}
    for name, param in inspect.signature(fn).parameters.items():
        if name not in arguments:
            continue
        if param.kind is param.KEYWORD_ONLY:
            kwargs[name] = arguments[name]
        else:
            args.append(arguments[name])
    out = fn(*args, **kwargs)
    return next(out, None) if inspect.isgenerator(out) else out


@pytest.fixture(scope="module", autouse=True)
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "a2.json"
    path.write_text(json.dumps(world()["cfg"]))
    world()["path"] = str(path)


def test_every_parameter_is_in_the_table():
    """A public parameter has a row in TABLE or OVERRIDES, or an exemption
    with its reason."""
    missing = [f"{qualified}.{name}" for qualified, _, name in PARAMETERS
               if _spec(qualified, name) is None]
    assert missing == []


def test_exemptions_and_overrides_name_real_parameters():
    known = {qualified for qualified, _ in public_functions()}
    known |= {f"{qualified}.{name}" for qualified, fn in public_functions()
              for name in inspect.signature(fn).parameters}
    assert set(EXEMPT) | set(UNREAD) | set(OVERRIDES) <= known
    assert all(EXEMPT.values()) and all(why for _, why in UNREAD.values())


@functools.lru_cache(maxsize=None)
def _valid_call(qualified: str, fn) -> None:
    _call(fn, _valid_arguments(qualified, fn))


@pytest.mark.parametrize("qualified,fn,name", PARAMETERS,
                         ids=[f"{q}-{n}" for q, _, n in PARAMETERS])
def test_wrong_argument_raises_validation_error(qualified, fn, name):
    """With valid values elsewhere (a call that succeeds), each wrong
    value of the parameter raises ValidationError."""
    spec = _spec(qualified, name)
    if spec is None:
        pytest.fail(f"{qualified}.{name} has no row in the table")
    _valid_call(qualified, fn)
    arguments = _valid_arguments(qualified, fn)
    bare = []
    for wrong in spec[1]:
        try:
            _call(fn, {**arguments, name: wrong})
        except ValidationError:
            continue
        except Exception as exc:                        # noqa: BLE001
            bare.append(f"{wrong!r}: {type(exc).__name__}: {exc}")
        else:
            bare.append(f"{wrong!r}: no error")
    assert bare == []
