"""Inputs outside the supported range fail with a typed error instead of
returning an answer: Hom checks across algebras, rank sequences of the
closed-form count, the level range of `reduction`, and matrix entries
and integers read from outside that are not integers."""

import numpy as np
import pytest

from cartanquiver import cartan, flagvar, gendecomp, hmod, homext, reduction
from cartanquiver import exactlinalg as la
from cartanquiver.cartan import RankVector
from cartanquiver.errors import (
    DatumMismatch,
    DimensionMismatch,
    KTooSmall,
    LengthMismatch,
    NotAHomomorphism,
    NotPrime,
    ShapeMismatch,
    ValidationError,
)

from conftest import dims_eps_file


class TestHomAcrossAlgebras:
    def _pairs(self, a2, kronecker):
        m = hmod.free_module(a2, 2, 2, (1, 1))
        for other in (hmod.free_module(a2, 2, 3, (1, 1)),
                      hmod.free_module(a2, 3, 2, (1, 1)),
                      hmod.free_module(kronecker, 2, 2, (1, 1))):
            yield m, other

    def test_check_homomorphism(self, a2, kronecker):
        for m, other in self._pairs(a2, kronecker):
            ident = [la.identity(d) for d in m.dims]
            for x, y in ((m, other), (other, m)):
                with pytest.raises(DatumMismatch):
                    homext.check_homomorphism(x, y, ident)

    def test_reduce_hom(self, a2, kronecker):
        for m, other in self._pairs(a2, kronecker):
            with pytest.raises(DatumMismatch):
                reduction.reduce_hom(m, other, homext.identity_hom(m))

    def test_tensor_modules(self, a2, kronecker):
        """Slots over different algebras, and Hom between tensor modules
        over different algebras."""
        for m, other in self._pairs(a2, kronecker):
            with pytest.raises(DatumMismatch):
                flagvar.TensorModule((m, other), (homext.identity_hom(m),))
            with pytest.raises(DatumMismatch):
                flagvar.hom_tensor(
                    flagvar.TensorModule((m,) * 2, (homext.identity_hom(m),)),
                    flagvar.TensorModule((other,) * 2,
                                         (homext.identity_hom(other),)))

    def test_same_algebra_still_accepted(self, a2):
        m = hmod.free_module(a2, 2, 3, (1, 1))
        fbar = reduction.reduce_hom(m, m, homext.identity_hom(m))
        assert [f.tolist() for f in fbar] == [[[1]], [[1]]]


@pytest.mark.parametrize("brseq", [[(1, 0, 5), (0, 1, 7)], [], [(1,), (1,)]])
def test_closed_form_count_checks_lengths(no_arrows, brseq):
    with pytest.raises(LengthMismatch):
        flagvar.closed_form_flag_count_no_arrows(no_arrows, 1, 2, brseq)


def test_brseq_must_be_a_sequence(a2):
    """A brseq that is not a sequence raises ValidationError in its one
    reader, where iterating it raised a bare TypeError."""
    with pytest.raises(ValidationError, match="bad brseq"):
        cartan.flag_dimension(a2, 5)
    with pytest.raises(ValidationError, match="bad brseq"):
        flagvar.point_count(hmod.free_module(a2, 1, 2, (1, 1)), 3)


def test_closed_form_count_still_counts(no_arrows):
    # the Grassmannian of lines in F_2^2 at vertex 1, a point at vertex 2
    assert flagvar.closed_form_flag_count_no_arrows(
        no_arrows, 1, 2, [(1, 0), (1, 1)]) == 3


@pytest.mark.parametrize("k_max", [0, -1])
def test_rigid_transfer_needs_a_level(a2, k_max):
    with pytest.raises(ValidationError):
        reduction.rigid_transfer_check(a2, 2, (1, 1), k_max=k_max)


class TestHomCoordinates:
    """HomBasis.coords_of on the free A2 module of rank (1, 1) at k = 2,
    p = 3: what is not an element of the Hom space raises
    NotAHomomorphism, and entries are read mod p."""

    @pytest.fixture
    def basis(self, a2):
        m = hmod.free_module(a2, 2, 3, (1, 1))
        return homext.hom_space(m, m)

    def test_wrong_block_shape(self, basis):
        ident = homext.identity_hom(basis.source)
        with pytest.raises(NotAHomomorphism):
            basis.coords_of([ident[0], la.identity(2).reshape(4, 1)])

    def test_not_a_homomorphism(self, basis):
        e12 = np.array([[0, 1], [0, 0]])
        with pytest.raises(NotAHomomorphism):
            basis.coords_of([e12, la.identity(2)])

    def test_one_vertex(self, basis):
        with pytest.raises(NotAHomomorphism):
            basis.coords_of([la.identity(2)])

    def test_entries_read_mod_p(self, basis):
        ident = homext.identity_hom(basis.source)
        coords = basis.coords_of([4 * a for a in ident])
        assert coords.tolist() == basis.coords_of(ident).tolist()
        assert ((coords @ basis.vec_basis) % 3).tolist() == [
            1, 0, 0, 1, 1, 0, 0, 1]


class TestNonIntegerEntries:
    """Entries that are not integers raise ValidationError; a cast to
    int64 would truncate them (1.9 and 1.5 read as 1)."""

    EPS = [[[0, 0], [1, 0]], [[0, 0], [1, 0]]]
    ARROW = [[[1, 0], [0, 1]]]

    def test_make_module(self, a2):
        m = hmod.make_module(a2, 2, 3, self.EPS, {(0, 1): self.ARROW})
        assert m.arrows[(0, 1)][0].tolist() == self.ARROW[0]
        for eps, arrow in (([[[0, 0], [1.9, 0]], self.EPS[1]], self.ARROW),
                           (self.EPS, [[[1.5, 0], [0, 1]]]),
                           (self.EPS, [np.eye(2)])):
            with pytest.raises(ValidationError):
                hmod.make_module(a2, 2, 3, eps, {(0, 1): arrow})

    def test_module_files_and_structure_matrices(self, a2):
        data = {"k": 2, "p": 3, "dims": [2, 2], "eps": self.EPS,
                "arrows": {"1,2": self.ARROW}}
        assert hmod.module_from_dict(a2, data).dims == (2, 2)
        for key, value in (("eps", [[[0, 0], [1.5, 0]], self.EPS[1]]),
                           ("arrows", {"1,2": [[[0.5, 0], [0, 1]]]})):
            with pytest.raises(ValidationError):
                hmod.module_from_dict(a2, {**data, key: value})
        with pytest.raises(ValidationError):
            hmod.structure_from_arrays(a2, 1, 3, (1, 1),
                                       {(0, 1): [[[0.5]]]})
        s = hmod.structure_from_arrays(a2, 1, 3, (1, 1), {})
        assert s.mats[(0, 1)].dtype == np.int64

    def test_homomorphisms(self, a2):
        """1.9 I is refused as a homomorphism and as a Hom element, where
        it was read as I."""
        m = hmod.free_module(a2, 2, 3, (1, 1))
        ident = homext.identity_hom(m)
        basis = homext.hom_space(m, m)
        assert basis.coords_of(ident).dtype == np.int64
        for f in ([1.9 * a for a in ident], [a + 0.5 for a in ident]):
            with pytest.raises(ValidationError):
                homext.check_homomorphism(m, m, f)
            with pytest.raises(ValidationError):
                reduction.reduce_hom(m, m, f)
            with pytest.raises(ValidationError):
                basis.coords_of(f)

    def test_quotient_coords(self):
        u = la.Subspace.from_rows([[1, 2]], 2, 3)
        assert u.quotient_coords([[4, 1], [0, 2]]).tolist() == [[1, 0]]
        with pytest.raises(ValidationError):
            u.quotient_coords([[0.5], [1]])

    def test_integer_array(self):
        for good in ([[1, 2]], np.array([True, False]),
                     np.arange(3, dtype=np.uint8), np.zeros((0, 3))):
            out = la.integer_array(good)
            assert out.dtype == np.int64
        for bad in ([[0.5, 1]], [1.0], np.array([1], dtype=object),
                    np.array([1 + 0j])):
            with pytest.raises(ValidationError):
                la.integer_array(bad)


class TestIntegerReaders:
    """Integers from outside the library are read like operator.index
    reads them: ints, bools and numpy integers pass, and a float or a
    string raises ValidationError, where int() truncated (2.7 read as 2)
    or parsed it."""

    CONFIG = {"n": 2, "C": [[2, -1], [-1, 2]], "D": [1, 1],
              "omega": [[1, 2]], "k": 2, "p": 5}

    def test_cartan_data(self):
        a2 = cartan.validate_cartan(np.array([[2, -1], [-1, 2]]),
                                    np.array([1, 1], dtype=np.uint8))
        assert a2.c == ((2, -1), (-1, 2)) and a2.d == (1, 1)
        for c, d in (([[2, -1.5], [-1, 2]], [1, 1]),
                     ([[2, -1], [-1, 2]], [1.0, 1]),
                     ([[2, -1], [-1, 2]], ["1", 1])):
            with pytest.raises(ValidationError):
                cartan.validate_cartan(c, d)
        for omega in ([(0, 1.0)], [(0, 1, 2)], [("0", 1)]):
            with pytest.raises(ValidationError):
                cartan.validate_orientation(a2, omega)

    def test_config(self):
        datum, k, p = cartan.datum_from_dict(
            dict(self.CONFIG, n=np.int64(2), k=True))
        assert (datum.n, k, p) == (2, 1, 5)
        for entry in ({"n": 2.7, "k": 2.5, "p": 5.9, "omega": [[1.9, 2]]},
                      {"n": 2.0}, {"k": 2.5}, {"p": 5.9}, {"p": "5"},
                      {"omega": [[1.9, 2]]}, {"D": [2.7, 1]}):
            with pytest.raises(ValidationError):
                cartan.datum_from_dict(dict(self.CONFIG, **entry))

    def test_rank_vectors(self, a2):
        assert RankVector((np.int64(1), True)) == (1, 1)
        for entries in ((1.5, 2), (1, "2"), (np.float64(1), 0)):
            with pytest.raises(ValidationError):
                RankVector(entries)
        with pytest.raises(ValidationError):
            cartan.euler_form(a2, (1.5, 0), (1, 0))

    def test_module_files(self, a2):
        m = hmod.random_locally_free(a2, 2, 3, (1, 1), seed=1)
        structure = hmod.module_to_dict(m)
        dims = dims_eps_file(m)
        assert hmod.modules_equal(hmod.module_from_dict(a2, structure), m)
        assert hmod.modules_equal(hmod.module_from_dict(a2, dims), m)
        arrows = dims["arrows"]["1,2"]
        for data in ({**structure, "k": 2.0}, {**structure, "p": 3.5},
                     {**structure, "rank": [1.5, 1]}, {**dims, "k": "2"},
                     {**dims, "dims": [2.0, 2]},
                     {**dims, "arrows": {"1.5,2": arrows}},
                     {**dims, "arrows": {"1,2.0": arrows}}):
            with pytest.raises(ValidationError):
                hmod.module_from_dict(a2, data)


def test_check_prime_reads_integers(a2):
    """The modulus is read with operator.index: 5.5 and 2.0 were returned
    as they came, and a module over F_5.5 was built."""
    assert la.check_prime(np.int64(5)) == 5 and la.check_prime(7) == 7
    for bad in (5.5, 2.0, 5.0, np.float64(3), "5", None):
        with pytest.raises(NotPrime):
            la.check_prime(bad)
    with pytest.raises(NotPrime):
        hmod.free_module(a2, 1, 5.5, (1, 1))
    m = hmod.free_module(a2, 1, 5, (1, 1))
    with pytest.raises(NotPrime):
        hmod.reduce_mod_p(m, 5.0)
    assert hmod.modules_equal(hmod.reduce_mod_p(m, np.int64(5)), m)


# site -> (call(a2, no_arrows, value), least accepted value, error type
# below it: KTooSmall for a level)
INTEGER_PARAMETERS = {
    "build_quiver-k": (
        lambda a2, no_arrows, v: cartan.build_quiver(a2, v), 1, KTooSmall),
    "datum_from_dict-k": (
        lambda a2, no_arrows, v: cartan.datum_from_dict(
            dict(TestIntegerReaders.CONFIG, k=v)), 1, KTooSmall),
    "make_module-k": (
        lambda a2, no_arrows, v: hmod.make_module(
            a2, v, 3, [la.zeros(1, 1)] * 2, {}), 1, KTooSmall),
    "_structure_shapes-k": (
        lambda a2, no_arrows, v: hmod._structure_shapes(
            a2, v, RankVector((1, 1))), 1, KTooSmall),
    "module_at_level-k_new": (
        lambda a2, no_arrows, v: reduction.module_at_level(
            hmod.free_module(a2, 1, 3, (1, 1)), v), 1, KTooSmall),
    "closed_form-k": (
        lambda a2, no_arrows, v: flagvar.closed_form_flag_count_no_arrows(
            no_arrows, v, 3, [(1, 1), (1, 1)]), 1, KTooSmall),
    "closed_form-q": (
        lambda a2, no_arrows, v: flagvar.closed_form_flag_count_no_arrows(
            no_arrows, 1, v, [(1, 1), (1, 1)]), 2, ValidationError),
    "find_rigid-trials": (
        lambda a2, no_arrows, v: homext.find_rigid(
            a2, 1, 2, (1, 0), trials=v), 0, ValidationError),
    "rigid_transfer_check-k_max": (
        lambda a2, no_arrows, v: reduction.rigid_transfer_check(
            a2, 2, (1, 0), k_max=v, trials=2), 1, ValidationError),
    "k_independence_check-k_max": (
        lambda a2, no_arrows, v: gendecomp.k_independence_check(
            a2, 2, (1, 0), k_max=v), 1, ValidationError),
    "counting_polynomial-degree_bound": (
        lambda a2, no_arrows, v: flagvar.counting_polynomial(
            hmod.free_module(a2, 1, 2, (1, 1)), [(1, 0), (0, 1)],
            degree_bound=v), 0, ValidationError),
    "ext_generic-samples": (
        lambda a2, no_arrows, v: gendecomp.ext_generic(
            a2, 1, 2, (1, 0), (0, 1), samples=v), 1, ValidationError),
    "is_schur_root-samples": (
        lambda a2, no_arrows, v: gendecomp.is_schur_root(
            a2, 1, 2, (1, 1), samples=v), 1, ValidationError),
    "canonical_decomposition-samples": (
        lambda a2, no_arrows, v: gendecomp.canonical_decomposition(
            a2, 1, 2, (1, 1), samples=v), 1, ValidationError),
    "parameter_estimate-samples": (
        lambda a2, no_arrows, v: homext.parameter_estimate(
            a2, 1, 2, (1, 0), samples=v), 1, ValidationError),
    "euler_form-k": (
        lambda a2, no_arrows, v: cartan.euler_form(a2, (1, 1), (1, 1), k=v),
        1, KTooSmall),
    "symmetrizer_form-k": (
        lambda a2, no_arrows, v: cartan.symmetrizer_form(
            a2, (1, 1), (1, 1), k=v), 1, KTooSmall),
    "free_module-k": (
        lambda a2, no_arrows, v: hmod.free_module(a2, v, 3, (1, 1)), 1,
        KTooSmall),
    "matpow-exponent": (
        lambda a2, no_arrows, v: la.matpow(la.identity(2), v, 3), 0,
        ValidationError),
    "from_rows-ambient": (
        lambda a2, no_arrows, v: la.Subspace.from_rows(la.zeros(0, 0), v, 3),
        0, ValidationError),
    "coordinate-ambient": (
        lambda a2, no_arrows, v: la.Subspace.coordinate((), v, 3), 0,
        ValidationError),
    "gaussian_binomial-q": (
        lambda a2, no_arrows, v: la.gaussian_binomial(3, 1, v), 2,
        ValidationError),
}


@pytest.mark.parametrize("call,least,error", INTEGER_PARAMETERS.values(),
                         ids=INTEGER_PARAMETERS.keys())
def test_integer_parameters_read_with_index(a2, no_arrows, call, least,
                                            error):
    """Levels, level bounds, field sizes, degree bounds, trial and sample
    counts are read with operator.index by one reader: a float raises
    ValidationError where it raised a bare TypeError or was used as it came
    (k = 1.5 gave a float count, float shapes for the structure shapes),
    least - 1 raises exactly the documented type (a level below 1 raised
    plain ValidationError at four sites), and least and integral values of
    any integer type are accepted."""
    for bad in (1.5, 2.0, "2"):
        with pytest.raises(ValidationError):
            call(a2, no_arrows, bad)
    with pytest.raises(ValidationError) as excinfo:
        call(a2, no_arrows, least - 1)
    assert excinfo.type is error
    assert f"must be >= {least}, got {least - 1}" in str(excinfo.value)
    for good in (least, 2, np.int64(2)):
        assert call(a2, no_arrows, good) is not None


@pytest.mark.parametrize("args", [
    (3, 1, 1), (3, 1, 0), (3, 1, -3), (3, 1, 2.5), (3, 1.0, 2), (3.0, 1, 2),
], ids=["q=1", "q=0", "q=-3", "q=2.5", "d=1.0", "n=3.0"])
def test_gaussian_binomial_needs_a_field_size(args):
    """n, d and q are integers and q >= 2: q = 1 raised a bare
    ZeroDivisionError, q = 0 gave 1 and q = -3 gave -2, q = 2.5 raised
    InternalCheckError and d = 1.0 a bare TypeError."""
    with pytest.raises(ValidationError):
        la.gaussian_binomial(*args)
    assert la.gaussian_binomial(np.int64(3), 1, 2) == 7


READERS = {
    "make_module-loops-not-a-sequence": (
        lambda a2: hmod.make_module(a2, 1, 3, 5, {}), ValidationError),
    "make_module-arrows-not-a-mapping": (
        lambda a2: hmod.make_module(a2, 1, 3, [la.zeros(1, 1)] * 2,
                                    [[la.zeros(1, 1)]]), ValidationError),
    "make_module-arrows-an-array": (
        lambda a2: hmod.make_module(a2, 1, 3, [la.zeros(1, 1)] * 2,
                                    np.zeros((1, 1, 1))), ValidationError),
    "make_module-arrows-an-empty-list": (
        lambda a2: hmod.make_module(a2, 1, 3, [la.zeros(1, 1)] * 2, []),
        ValidationError),
    "make_module-arrow-list-not-a-sequence": (
        lambda a2: hmod.make_module(a2, 1, 3, [la.zeros(1, 1)] * 2,
                                    {(0, 1): 5}), ValidationError),
    "structure_from_arrays-not-a-mapping": (
        lambda a2: hmod.structure_from_arrays(a2, 1, 3, (1, 1), [1]),
        ValidationError),
    "random_locally_free-modulus": (
        lambda a2: hmod.random_locally_free(a2, 1, "x", (1, 1), 0), NotPrime),
    "iter_structure_matrices-modulus": (
        lambda a2: next(hmod.iter_structure_matrices(a2, 1, "x", (1, 1))),
        NotPrime),
    "free_module-modulus": (
        lambda a2: hmod.free_module(a2, 1, "x", (1, 1)), NotPrime),
    "free_module-rank-length": (
        lambda a2: hmod.free_module(a2, 1, 3, (1, 1, 1)), ShapeMismatch),
    "block_diag-not-a-matrix": (
        lambda a2: la.block_diag([1, 2]), DimensionMismatch),
    "flag-layers-not-a-sequence": (
        lambda a2: flagvar.FlagOfSubmodules(
            hmod.free_module(a2, 1, 3, (1, 1)), ((1, 0), (0, 1)), None),
        ValidationError),
    "make_module-ragged-loop": (
        lambda a2: hmod.make_module(a2, 1, 3, [[[0], [0, 0]], [[0]]], {}),
        ValidationError),
    "from_rows-ragged-rows": (
        lambda a2: la.Subspace.from_rows([[1, 0], [1]], 2, 3),
        ValidationError),
    "integer_array-ragged": (
        lambda a2: la.integer_array([[1, 0], [1]]), ValidationError),
}


@pytest.mark.parametrize("call,error", READERS.values(), ids=READERS.keys())
def test_readers_check_containers_and_modulus_first(a2, call, error):
    """Module and structure readers check their containers and modulus
    before they use them: each input but the two `free_module` ones raised
    a bare TypeError, ValueError, AttributeError or IndexError, or (an empty
    list of arrows) no error, where the documented type is due;
    `free_module` keeps the errors it raised.  A ragged nested list raised
    numpy's bare ValueError."""
    with pytest.raises(ValidationError) as excinfo:
        call(a2)
    assert excinfo.type is error


# construction -> call(m) with a container argument of the wrong kind
CONSTRUCTIONS = {
    "quotient-subspaces-none": lambda m: hmod.quotient(m, None),
    "sub_quotient-subspaces-an-int": lambda m: hmod.sub_quotient(m, 5),
    "quotient-subspaces-not-subspaces": lambda m: hmod.quotient(m, [1, 2]),
    "direct_sum-not-a-module": lambda m: hmod.direct_sum(m, 5),
    "hom_space-not-a-module": lambda m: homext.hom_space(m, 5),
    "hom_space-source-none": lambda m: homext.hom_space(None, m),
    "are_isomorphic-not-a-module": lambda m: homext.are_isomorphic(m, None),
}


@pytest.mark.parametrize("call", CONSTRUCTIONS.values(),
                         ids=CONSTRUCTIONS.keys())
def test_constructions_read_their_arguments(a2, call):
    """Module constructions refuse subspaces that are not a sequence of
    Subspace, and modules that are not an HModule, with ValidationError:
    each raised a bare TypeError or AttributeError."""
    with pytest.raises(ValidationError):
        call(hmod.random_locally_free(a2, 2, 3, (1, 1), seed=1))


# entry point -> call(m) with a module, flag or map argument of the wrong
# kind
ENTRY_POINTS = {
    "point_count-not-a-module":
        lambda m: flagvar.point_count(5, [(1, 0), (0, 1)]),
    "iter_flags-module-none":
        lambda m: next(flagvar.iter_flags(None, [(1, 0), (0, 1)])),
    "bundle_ratio_check-not-a-module":
        lambda m: flagvar.bundle_ratio_check(5, [(1, 0), (0, 1)]),
    "reduce-not-a-module": lambda m: reduction.reduce(5),
    "krull_schmidt-not-a-module": lambda m: gendecomp.krull_schmidt(5),
    "rank_vector-not-a-module": lambda m: hmod.rank_vector(5),
    "normalize-not-a-module": lambda m: hmod.normalize(5),
    "reduce_mod_p-not-a-module": lambda m: hmod.reduce_mod_p(5, 2),
    "module_to_dict-not-a-module": lambda m: hmod.module_to_dict(5),
    "modules_equal-not-a-module": lambda m: hmod.modules_equal(m, 5),
    "tangent_dimension-flag-none":
        lambda m: flagvar.tangent_dimension(m, None),
    "reduce_flag-flag-an-int": lambda m: flagvar.reduce_flag(m, 5),
    "fiber_of_reduction-base-an-int":
        lambda m: flagvar.fiber_of_reduction(m, 5),
    "check_homomorphism-map-an-int":
        lambda m: homext.check_homomorphism(m, m, 5),
    "reduce_hom-map-none": lambda m: reduction.reduce_hom(m, m, None),
    "is_locally_free-not-a-module": lambda m: hmod.is_locally_free(5),
    "validate_module-not-a-module": lambda m: hmod.validate_module(5),
    "to_structure_matrices-not-a-module":
        lambda m: hmod.to_structure_matrices(5),
    "is_indecomposable-not-a-module":
        lambda m: gendecomp.is_indecomposable(5),
    "identity_hom-not-a-module": lambda m: homext.identity_hom(5),
    "epsilon_filtration_check-not-a-module":
        lambda m: reduction.epsilon_filtration_check(5),
    "subspace-sum-with-an-int": lambda m: la.Subspace.zero(2, 3) + 5,
    "epsilon_blocks-power-none": lambda m: hmod.epsilon_blocks(m, None),
    "coords_of-map-an-int": lambda m: homext.hom_space(m, m).coords_of(5),
    "coords_of-map-none": lambda m: homext.hom_space(m, m).coords_of(None),
    "compose-maps-none": lambda m: homext.compose(None, None, 3),
    "is_homomorphism-map-an-int": lambda m: homext.is_homomorphism(m, m, 5),
    "is_homomorphism-blocks-of-the-wrong-shape":
        lambda m: homext.is_homomorphism(
            m, m, (np.zeros((1, 1)), np.zeros((1, 1)))),
    "compose-prime-none": lambda m: homext.compose(
        homext.identity_hom(m), homext.identity_hom(m), None),
}

# entry point -> the ValidationError subclass it raises
ENTRY_POINT_ERRORS = {
    "is_homomorphism-blocks-of-the-wrong-shape": NotAHomomorphism,
}


@pytest.mark.parametrize("name,call", ENTRY_POINTS.items(),
                         ids=ENTRY_POINTS.keys())
def test_entry_points_read_their_arguments(a2, name, call):
    """One-module entry points refuse what is not an HModule
    (`hmod.read_module`), the flag entry points what is not a
    FlagOfSubmodules, the homomorphism readers a map that is not a
    sequence, or (NotAHomomorphism) blocks of the wrong shape, before
    their entries, `compose` a modulus that is not a prime,
    `epsilon_blocks` a power that is not an integer and a subspace sum
    what is not a Subspace, with ValidationError: each raised a bare
    AttributeError, TypeError or numpy ValueError."""
    m = hmod.random_locally_free(a2, 2, 3, (1, 1), seed=1)
    with pytest.raises(ENTRY_POINT_ERRORS.get(name, ValidationError)):
        call(m)
    # the same entry points still take a module, a flag and a map
    flag = next(flagvar.iter_flags(m, [(1, 0), (0, 1)]), None)
    if flag is not None:
        assert flagvar.tangent_dimension(m, flag) >= 0
    assert hmod.modules_equal(m, m)
    one = homext.check_homomorphism(m, m, homext.identity_hom(m))
    assert homext.is_homomorphism(m, m, homext.compose(one, one, m.p))
    assert homext.hom_space(m, m).coords_of(one).shape == (
        homext.hom_space(m, m).dim,)
    assert hmod.is_locally_free(m) and len(hmod.epsilon_blocks(m, 1)) == 2


@pytest.mark.parametrize("points,degree_bound", [
    ([(1.5, 2), (2, 3)], None), ([(1, 2), (2, 3)], 0.5), (5, None),
    ([(1, 2.5), (2, 3)], None), ([(1, 2, 3), (2, 3)], None),
    ([(1, 2), (2, 3)], -1),
], ids=["float-q", "float-bound", "not-a-sequence", "float-value",
        "triple", "negative-bound"])
def test_lagrange_interpolate_reads_its_inputs(points, degree_bound):
    """Points are integer pairs and the degree bound an integer >= 0: a
    float q raised a bare AttributeError, a float bound or a bare int a
    TypeError, and a float value NonIntegerCoefficient, the verdict that
    no counting polynomial exists."""
    with pytest.raises(ValidationError):
        la.lagrange_interpolate(points, degree_bound)
    assert la.lagrange_interpolate([(np.int64(2), 5), (3, 7)]) == (1, 2)
