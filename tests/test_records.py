"""The records: one instance of every value class on `record.Record`, and a
frozen `Presentation`.

Each record prints the text its earlier dataclass version printed
(pinned below), is equal to a copy of itself and hashes alike when it
hashes at all, refuses every write and delete of a field, and survives
`copy.copy`, `copy.deepcopy` and `pickle`.  The generic constructor
takes fields by position and by name, fills in the defaults and refuses
what it cannot place.
"""

import copy
import pickle

import pytest

from hopfsmith.bialgebra import (AxiomReport, Bialgebra, HopfData,
                                 IntegralData)
from hopfsmith.comodule import Comodule
from hopfsmith.evaluate import Interpretation
from hopfsmith.field import QQ
from hopfsmith.gray import GrayMorphism, gray
from hopfsmith.mates import (AdjunctionRecord, HopfSquare, RetractRecord,
                             Square)
from hopfsmith.matrix import Matrix
from hopfsmith.presentation import (PresMorphism, Presentation, Relation,
                                    Violation)
from hopfsmith.reconstruct import (GeneratingFamily, ReconstructionResult,
                                   Resolution, RoundTrip)
from hopfsmith.record import Record
from hopfsmith.shear import ChainStep, SkeletonReport
from hopfsmith.terms import Gen, Generator, Id, TermError
from hopfsmith.walking import PointedPresentation, point


def one(x):
    return Matrix.from_entries(QQ, 1, 1, [(0, 0, x)])


def records():
    """name -> one instance of every record class, built small."""
    pt = point()
    pt.kernel()  # a frozen presentation is a value too
    x, f, g = Gen("x"), Gen("f"), Gen("g")
    B = Bialgebra(QQ, 1, one(1), one(1), one(1), one(1))
    M = Comodule(B, 1, one(1))
    ident = PresMorphism(pt, pt, {"pt": Gen("pt")})
    adj = AdjunctionRecord(pt, f, g, Id(x), Id(x))
    retract = RetractRecord(pt, f, g, Id(f), adj, adj, Id(g), Id(f),
                            counit3=Id(Id(g)), unit3=Id(Id(f)))
    step = ChainStep("hexagon", f, "4-cell")
    return {
        "Generator": Generator("f", 1, x, x, True),
        "Relation": Relation(1, f, g, oriented=True),
        "Violation": Violation("t", "src/tgt parallel undecided", True),
        "PresMorphism": ident,
        "Bialgebra": B,
        "AxiomReport": AxiomReport("counit", False, "entry (0, 0)"),
        "HopfData": HopfData(B, one(1)),
        "IntegralData": IntegralData([one(1)], [one(2)], 2, one(1), one(1)),
        "Comodule": M,
        "Resolution": Resolution([0], [one(1)], [one(1)]),
        "GeneratingFamily": GeneratingFamily([M]),
        "ReconstructionResult": ReconstructionResult(B, None, "no-reference",
                                                     ["no reference"]),
        "RoundTrip": RoundTrip("isomorphism", B, True, True, False, False,
                               []),
        "Interpretation": Interpretation(QQ, 2, {"A": 1}, {"m": one(3)},
                                         None),
        "GrayMorphism": GrayMorphism(ident, ident, gray(pt, pt)),
        "PointedPresentation": PointedPresentation(pt, "pt"),
        "ChainStep": step,
        "SkeletonReport": SkeletonReport([step], True, True, False,
                                         {"4-cell": 1}, ["hexagon"]),
        "AdjunctionRecord": adj,
        "Square": Square(f=f, g=g, h=g, k=f, alpha=Id(f)),
        "RetractRecord": retract,
        "HopfSquare": HopfSquare(retract, x, f, g, f, g, Id(f), Id(g),
                                 Id(x), {"mult": "Equal"}),
    }


PT = ("Presentation(max_dim=0, gens={'pt': Generator(name='pt', dim=0, "
      "src=None, tgt=None, invertible=False)}, relations=[])")
ONE = "Matrix(1x1: 1)"
B_TEXT = (f"Bialgebra(field={QQ!r}, n=1, m={ONE}, u={ONE}, delta={ONE}, "
          f"eps={ONE}, grading=(0,), braiding='flip', basis_names=('e0',))")
M_TEXT = f"Comodule(bialgebra={B_TEXT}, d=1, rho={ONE})"
IDENT = (f"PresMorphism(domain={PT}, codomain={PT}, "
         "assignment={'pt': Gen('pt')})")
ADJ = (f"AdjunctionRecord(presentation={PT}, l=Gen('f'), r=Gen('g'), "
       "eps=Id(Gen('x')), eta=Id(Gen('x')))")
RETRACT = (f"RetractRecord(presentation={PT}, f=Gen('f'), g=Gen('g'), "
           f"alpha=Id(Gen('f')), adj_f={ADJ}, adj_g={ADJ}, "
           "section_l=Id(Gen('g')), retraction_r=Id(Gen('f')), "
           "counit3=Id(Id(Gen('g'))), unit3=Id(Id(Gen('f'))))")
STEP = ("ChainStep(label='hexagon', term=Gen('f'), classification='4-cell', "
        "composable=None)")
# the reprs the dataclass versions printed for the instances above
REPRS = {
    "Generator": "Generator(name='f', dim=1, src=Gen('x'), tgt=Gen('x'), "
                 "invertible=True)",
    "Relation": "Relation(dim=1, lhs=Gen('f'), rhs=Gen('g'), oriented=True)",
    "Violation": "Violation(where='t', issue='src/tgt parallel undecided', "
                 "undecided=True)",
    "PresMorphism": IDENT,
    "Bialgebra": B_TEXT,
    "AxiomReport": "AxiomReport(name='counit', holds=False, "
                   "witness='entry (0, 0)')",
    "HopfData": f"HopfData(bialgebra={B_TEXT}, S={ONE}, S_inv=None)",
    "IntegralData": "IntegralData(left_integrals=[Matrix(1x1: 1)], "
                    "left_cointegrals=[Matrix(1x1: 2)], pairing=2, "
                    "normalized_integral=Matrix(1x1: 1), "
                    "normalized_cointegral=Matrix(1x1: 1))",
    "Comodule": M_TEXT,
    "Resolution": "Resolution(member_indices=[0], iotas=[Matrix(1x1: 1)], "
                  "pis=[Matrix(1x1: 1)])",
    "GeneratingFamily": f"GeneratingFamily(members=[{M_TEXT}])",
    "ReconstructionResult": f"ReconstructionResult(bialgebra={B_TEXT}, "
                            "canonical=None, verdict='no-reference', "
                            "details=['no reference'])",
    "RoundTrip": f"RoundTrip(verdict='isomorphism', reconstruction={B_TEXT}, "
                 "reference_hopf=True, reconstruction_hopf=True, "
                 "reference_cohopf=False, reconstruction_cohopf=False, "
                 "details=[])",
    "Interpretation": f"Interpretation(field={QQ!r}, k=2, sizes={{'A': 1}}, "
                      "matrices={'m': Matrix(1x1: 3)}, junction=None)",
    "GrayMorphism": f"GrayMorphism(left={IDENT}, right={IDENT}, "
                    "codomain=Presentation(max_dim=0, gens={'pt⊗pt': "
                    "Generator(name='pt⊗pt', dim=0, src=None, tgt=None, "
                    "invertible=False)}, relations=[]))",
    "PointedPresentation": f"PointedPresentation(base={PT}, basepoint='pt')",
    "ChainStep": STEP,
    "SkeletonReport": f"SkeletonReport(steps=[{STEP}], chain_composable=True, "
                      "boundary_match=True, hexagon_closes=False, "
                      "table={'4-cell': 1}, failures=['hexagon'])",
    "AdjunctionRecord": ADJ,
    "Square": "Square(f=Gen('f'), g=Gen('g'), h=Gen('g'), k=Gen('f'), "
              "alpha=Id(Gen('f')))",
    "RetractRecord": RETRACT,
    "HopfSquare": f"HopfSquare(record={RETRACT}, H=Gen('x'), mult=Gen('f'), "
                  "unit=Gen('g'), counit=Gen('f'), comult=Gen('g'), "
                  "alpha_rmate=Id(Gen('f')), alpha_lmate=Id(Gen('g')), "
                  "alpha_sharp=Id(Gen('x')), checks={'mult': 'Equal'})",
}
# the records that hold a list or a dict, which a frozen dataclass could
# not hash either
UNHASHABLE = {"PresMorphism", "IntegralData", "Resolution",
              "GeneratingFamily", "ReconstructionResult", "RoundTrip",
              "Interpretation", "GrayMorphism", "PointedPresentation",
              "SkeletonReport", "AdjunctionRecord", "RetractRecord",
              "HopfSquare"}
RECORDS = records()


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_record_class_has_an_instance():
    # every record class of the package but the term nodes and their base
    classes = {c for c in subclasses(Record)
               if not issubclass(c, Gen.__base__)}
    assert {type(r) for r in RECORDS.values()} == classes
    assert {c.__name__ for c in classes} == set(REPRS)
    assert not isinstance(point(), Record)


@pytest.mark.parametrize("name", sorted(REPRS))
def test_reprs_are_the_dataclass_text(name):
    assert repr(RECORDS[name]) == REPRS[name]


@pytest.mark.parametrize("name", sorted(REPRS))
def test_equality_and_hash_agree(name):
    r = records()[name]
    again = records()[name]
    assert r == again and not r != again and r == r
    assert r != object() and (r == 1) is False
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(r)
    else:
        assert hash(r) == hash(again)


def test_equality_reads_every_field_but_the_derived_ones():
    a = Relation(1, Gen("f"), Gen("g"))
    assert a != Relation(1, Gen("f"), Gen("g"), True)
    assert a != Relation(2, Gen("f"), Gen("g"))
    assert a != Violation(1, Gen("f"), Gen("g"))
    fam = GeneratingFamily([RECORDS["Comodule"]])
    fam.hom(0, 0)
    assert fam.hom_cache and fam == RECORDS["GeneratingFamily"]
    gm = RECORDS["GrayMorphism"]
    assert gm.tt is not copy.copy(gm).tt and gm == copy.copy(gm)


@pytest.mark.parametrize("name", sorted(REPRS))
def test_no_field_is_written_or_deleted(name):
    r = RECORDS[name]
    for field in type(r).__slots__ + ("other",):
        before = getattr(r, field, None)
        with pytest.raises(AttributeError,
                           match=f"^cannot assign to field '{field}'$"):
            setattr(r, field, None)
        with pytest.raises(AttributeError,
                           match=f"^cannot delete field '{field}'$"):
            delattr(r, field)
        assert getattr(r, field, None) is before
    assert not hasattr(r, "__dict__")


@pytest.mark.parametrize("name", sorted(REPRS))
def test_copies_and_pickles_round_trip(name):
    r = RECORDS[name]
    for again in (copy.copy(r), copy.deepcopy(r),
                  pickle.loads(pickle.dumps(r))):
        assert type(again) is type(r) and again == r
        assert repr(again) == repr(r)


def test_a_frozen_presentation_copies_and_pickles_frozen():
    p = RECORDS["PointedPresentation"].base
    for again in (copy.copy(p), copy.deepcopy(p),
                  pickle.loads(pickle.dumps(p))):
        assert again == p and repr(again) == PT
        with pytest.raises(TermError, match="frozen"):
            again.add("q", 0)
    assert p.__hash__ is None


def test_the_generic_constructor_places_fields_by_position_and_name():
    assert Square(Gen("a"), Gen("b"), Gen("c"), k=Gen("d"),
                  alpha=Gen("e")).k == Gen("d")
    assert AxiomReport("counit", True).witness is None
    assert IntegralData([], []).normalized_cointegral is None
    with pytest.raises(TypeError, match="^AxiomReport misses field 'holds'$"):
        AxiomReport("counit")
    with pytest.raises(TypeError, match="^AxiomReport takes 3 fields, got 4$"):
        AxiomReport("counit", True, None, None)
    with pytest.raises(TypeError,
                       match="^AxiomReport takes no field 'name' here$"):
        AxiomReport("counit", True, name="unit")
    with pytest.raises(TypeError,
                       match="^AxiomReport takes no field 'colour' here$"):
        AxiomReport("counit", True, colour="red")
